// Benchmarks: one testing.B benchmark per table and figure of the
// paper's evaluation, each exercising the operation the artifact
// measures. Full table/figure regeneration (rows and series) is
// cmd/potluck-experiments; these benches time the underlying primitives
// with Go's benchmark machinery.
package potluck_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	potluck "repro"
	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/imaging"
	"repro/internal/index"
	"repro/internal/nn"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/vec"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// BenchmarkFig2FrameSimilarity times one frame-similarity evaluation:
// extracting the ColorHist and HOG features of a video frame and
// computing the normalized distance to a reference (Figure 2's inner
// loop).
func BenchmarkFig2FrameSimilarity(b *testing.B) {
	video := synth.NewVideo(synth.VideoConfig{W: 160, H: 120, Seed: 1})
	frames := video.Frames(8)
	colorhist, _ := feature.ByName("colorhist")
	hog, _ := feature.ByName("hog")
	ref := colorhist.Extract(frames[0]).Key.Normalize()
	refHOG := hog.Extract(frames[0]).Key.Normalize()
	metric := vec.EuclideanMetric{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		metric.Distance(ref, colorhist.Extract(f).Key.Normalize())
		metric.Distance(refHOG, hog.Extract(f).Key.Normalize())
	}
}

// BenchmarkTable1KeyGeneration times each Table 1 extractor on a
// 600×400 frame.
func BenchmarkTable1KeyGeneration(b *testing.B) {
	img := synth.NewVideo(synth.VideoConfig{W: 600, H: 400, Seed: 7, Objects: 80}).Frame(0)
	for _, name := range []string{"sift", "surf", "harris", "fast", "downsamp"} {
		ext, err := feature.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ext.Extract(img)
			}
		})
	}
}

// BenchmarkFig6ThresholdInit times one warm-up threshold initialization
// over 64 observations (Figure 6's per-repetition work).
func BenchmarkFig6ThresholdInit(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	same := make([]float64, 64)
	diff := make([]float64, 64)
	for i := range same {
		same[i] = rng.Float64()
		diff[i] = 1 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WarmupThreshold(same, diff)
	}
}

// BenchmarkFig7ThresholdDecay times one Algorithm 1 observation (the
// operation Figure 7 counts).
func BenchmarkFig7ThresholdDecay(b *testing.B) {
	tuner := core.NewTuner(core.TunerConfig{WarmupZ: 1})
	tuner.ObservePut(0, true, false)
	tuner.ForceActivate(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.ObservePut(0.5, i%2 == 0, true)
	}
}

// BenchmarkFig8Replacement replays the Figure 8 request sequence (10 000
// requests, 100 workloads, 20% capacity) once per iteration, for each
// replacement policy.
func BenchmarkFig8Replacement(b *testing.B) {
	specs := workload.Specs(100, 1e6, 1e10)
	seq := workload.Sequence(workload.Exponential, 100, 10_000, rand.New(rand.NewSource(8)))
	for _, pol := range []core.PolicyKind{core.PolicyImportance, core.PolicyLRU, core.PolicyRandom} {
		b.Run(string(pol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Replay(specs, seq, pol, 20, workload.Mobile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Lookup times one nearest-neighbour lookup per index
// structure at 10 000 stored 100-byte keys (Table 2's middle row).
func BenchmarkTable2Lookup(b *testing.B) {
	const entries, dim = 10_000, 12
	rng := rand.New(rand.NewSource(2))
	keys := make([]vec.Vector, entries)
	mk := func() vec.Vector {
		v := make(vec.Vector, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	cfg := index.DefaultLSHConfig()
	cfg.BucketWidth = 0.5
	cfg.Hashes = 8
	lsh := index.NewLSH(vec.EuclideanMetric{}, cfg)
	lin := index.NewLinear(vec.EuclideanMetric{})
	kd := index.NewKDTree(vec.EuclideanMetric{})
	for i := 0; i < entries; i++ {
		keys[i] = mk()
		lsh.Insert(index.ID(i), keys[i])
		lin.Insert(index.ID(i), keys[i])
		kd.Insert(index.ID(i), keys[i])
	}
	query := keys[42].Clone()
	query[0] += 0.01
	b.Run("lsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lsh.ProbeOnly(query, 1)
		}
	})
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kd.Nearest(query)
		}
	})
	b.Run("enum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lin.Nearest(query)
		}
	})
	// Entry-count sweep for the sub-linear kinds (Table 2 extended past
	// paper scale). The index for each (kind, scale) is built once per
	// process — Go re-invokes the sub-benchmark with growing b.N, and
	// rebuilding a 10^5-entry graph on each ramp-up would dominate wall
	// time without being measured.
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, kind := range []index.Kind{index.KindHNSW, index.KindIVF} {
			b.Run(fmt.Sprintf("%s-%d", kind, n), func(b *testing.B) {
				idx, q := sweepIndex(b, kind, n, dim)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := idx.Nearest(q); !ok {
						b.Fatal("no result")
					}
				}
			})
		}
	}
}

// sweepCache holds the indexes BenchmarkTable2Lookup's sweep has already
// built this process, keyed by kind-scale.
var sweepCache = map[string]index.Index{}

func sweepIndex(b *testing.B, kind index.Kind, n, dim int) (index.Index, vec.Vector) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	keys := make([]vec.Vector, n)
	for i := range keys {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		keys[i] = v
	}
	q := keys[42%n].Clone()
	q[0] += 0.01
	ck := fmt.Sprintf("%s-%d", kind, n)
	if idx, ok := sweepCache[ck]; ok {
		return idx, q
	}
	idx, err := index.New(kind, vec.EuclideanMetric{}, dim)
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys {
		if err := idx.Insert(index.ID(i), k); err != nil {
			b.Fatal(err)
		}
	}
	sweepCache[ck] = idx
	return idx, q
}

// BenchmarkHNSWNearest times one HNSW probe on the benchmark's
// index-scale corpus shape (8 000 16-dim entries in 256 clusters, sigma 2
// around centres drawn with sigma 100) at the default pool width and at
// index-scale's -hnsw-efs 512, for near queries (0.5 off a stored entry)
// and for index-scale's far ones (5 000 ± 100 on every axis, nearer no
// entry than any threshold), unbounded and, as core probes once the
// tuner is active, within R = 4·T (-r4T) and 8·T (-r8T) for T = 15.6,
// the threshold index-scale learns. probes/op is the index's own count.
// Run with -benchmem: a probe should not allocate.
func BenchmarkHNSWNearest(b *testing.B) {
	const entries, dim, clusters = 8_000, 16, 256
	rng := rand.New(rand.NewSource(18))
	centres := make([]vec.Vector, clusters)
	for i := range centres {
		centres[i] = make(vec.Vector, dim)
		for d := range centres[i] {
			centres[i][d] = rng.NormFloat64() * 100
		}
	}
	corpus := make([]vec.Vector, entries)
	for i := range corpus {
		c := centres[rng.Intn(clusters)]
		corpus[i] = make(vec.Vector, dim)
		for d := range corpus[i] {
			corpus[i][d] = c[d] + rng.NormFloat64()*2
		}
	}
	near := make([]vec.Vector, 256)
	for i := range near {
		near[i] = corpus[rng.Intn(entries)].Clone()
		for d := range near[i] {
			near[i][d] += rng.NormFloat64() * 0.5
		}
	}
	far := make([]vec.Vector, 256)
	for i := range far {
		far[i] = make(vec.Vector, dim)
		for d := range far[i] {
			far[i][d] = 5000 + rng.NormFloat64()*100
		}
	}
	for _, efs := range []int{64, 512} {
		idx := index.NewHNSW(vec.EuclideanMetric{}, index.HNSWConfig{EfSearch: efs})
		for i, k := range corpus {
			if err := idx.Insert(index.ID(i+1), k); err != nil {
				b.Fatal(err)
			}
		}
		const threshold = 15.6
		for _, tc := range []struct {
			suffix  string
			queries []vec.Vector
			r       float64
		}{
			{"", near, math.Inf(1)}, {"-far", far, math.Inf(1)},
			{"-r4T", near, 4 * threshold}, {"-far-r4T", far, 4 * threshold},
			{"-r8T", near, 8 * threshold}, {"-far-r8T", far, 8 * threshold},
		} {
			b.Run(fmt.Sprintf("efs%d-8k%s", efs, tc.suffix), func(b *testing.B) {
				b.ReportAllocs()
				probes := 0
				for i := 0; i < b.N; i++ {
					_, p, ok := idx.NearestWithin(tc.queries[i%len(tc.queries)], tc.r)
					if !ok && math.IsInf(tc.r, 1) {
						b.Fatal("no result")
					}
					probes += p
				}
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			})
		}
	}
}

// BenchmarkIndexMemory reports the key-store footprint per entry of
// HNSW, HNSW-PQ and IVF at 10 000 entries (keyB/entry), with lookup time
// as ns/op. Every kind borrows the keys it is given, as in the cache
// core, where the entry owns them: HNSW-PQ's bytes are its codes and
// codebooks.
func BenchmarkIndexMemory(b *testing.B) {
	const entries, dim = 10_000, 16
	for _, kind := range []index.Kind{index.KindHNSW, index.KindHNSWPQ, index.KindIVF} {
		b.Run(string(kind), func(b *testing.B) {
			idx, err := index.New(kind, vec.EuclideanMetric{}, dim)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(16))
			var q vec.Vector
			for i := 0; i < entries; i++ {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				if err := idx.Insert(index.ID(i), v); err != nil {
					b.Fatal(err)
				}
				if i == 42 {
					q = v.Clone()
					q[0] += 0.01
				}
			}
			mr, ok := idx.(index.MemoryReporter)
			if !ok {
				b.Fatalf("%s does not report key memory", kind)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := idx.Nearest(q); !ok {
					b.Fatal("no result")
				}
			}
			// After ResetTimer (which clears extra metrics).
			b.ReportMetric(float64(mr.KeyBytes())/entries, "keyB/entry")
		})
	}
}

// BenchmarkIndexHeap reports the live heap an index adds per entry
// (heapB/entry) at 10 000 entries, for IVF and the flat and
// product-quantized HNSW kinds at dims 16 and 128: the heap after a GC with the
// index built, less the heap after a GC before it. The keys are
// allocated and held by the benchmark before the build, as the cache
// core's entries hold them, so what an index borrows is not counted and
// what it copies or adds (scan rows, codes, codebooks, maps, graph) is.
// ns/op is the build.
func BenchmarkIndexHeap(b *testing.B) {
	const entries = 10_000
	for _, dim := range []int{16, 128} {
		for _, kind := range []index.Kind{index.KindIVF, index.KindHNSW, index.KindHNSWPQ} {
			b.Run(fmt.Sprintf("%s/dim%d", kind, dim), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(dim)))
				keys := make([]vec.Vector, entries)
				for i := range keys {
					keys[i] = make(vec.Vector, dim)
					for j := range keys[i] {
						keys[i][j] = rng.NormFloat64()
					}
				}
				var added int64
				for n := 0; n < b.N; n++ {
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					idx, err := index.New(kind, vec.EuclideanMetric{}, dim)
					if err != nil {
						b.Fatal(err)
					}
					for i, k := range keys {
						if err := idx.Insert(index.ID(i), k); err != nil {
							b.Fatal(err)
						}
					}
					runtime.GC()
					runtime.ReadMemStats(&after)
					added += int64(after.HeapAlloc) - int64(before.HeapAlloc)
					runtime.KeepAlive(idx)
				}
				runtime.KeepAlive(keys)
				b.ReportMetric(float64(added)/float64(b.N)/entries, "heapB/entry")
			})
		}
	}
}

// ipcBench starts a service on a Unix socket holding one entry under key,
// and a client connected to it; both end with the benchmark.
func ipcBench(b *testing.B) (cl *potluck.Client, key potluck.Vector) {
	b.Helper()
	srv := potluck.NewServer(potluck.New(potluck.Config{
		DisableDropout: true, Tuner: potluck.TunerConfig{WarmupZ: 1},
	}))
	sock := filepath.Join(b.TempDir(), "p.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	b.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	cl, err = potluck.Dial("unix", sock, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	if err := cl.Register("f", potluck.KeyTypeDef{Name: "k"}); err != nil {
		b.Fatal(err)
	}
	key = potluck.Vector{1, 2, 3, 4}
	if _, err := cl.Put("f", map[string]potluck.Vector{"k": key}, []byte("v"), potluck.PutOptions{}); err != nil {
		b.Fatal(err)
	}
	return cl, key
}

// BenchmarkIPCRoundTrip times one lookup round trip over the Unix-socket
// service (§5.4's 0.36 ms measurement).
func BenchmarkIPCRoundTrip(b *testing.B) {
	cl, key := ipcBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Lookup("f", "k", key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPCPipelined times one lookup with 32 callers sharing the
// connection, each waiting for its own reply: the service's cost per
// lookup once bursts form, where BenchmarkIPCRoundTrip is the cost of a
// lone caller's wake-ups.
func BenchmarkIPCPipelined(b *testing.B) {
	cl, key := ipcBench(b)
	var issued atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(b.N) {
				if _, err := cl.Lookup("f", "k", key); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMultiLookup times one lookup when batched over the
// Unix-socket service at batch sizes 1, 4 and 16 (one MultiLookup wire
// frame per batch), so ns/op is directly comparable with
// BenchmarkIPCRoundTrip: the gap is the per-operation IPC overhead the
// batch frame amortizes.
func BenchmarkMultiLookup(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cl, key := ipcBench(b)
			subs := make([]potluck.LookupSub, batch)
			for i := range subs {
				subs[i] = potluck.LookupSub{Function: "f", KeyType: "k", Key: key}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				res, err := cl.MultiLookup(subs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// benchCacheWithEntries builds a cache pre-populated with n keys of the
// given dimensionality, threshold forced open.
func benchCacheWithEntries(b *testing.B, n, dim int) (*core.Cache, []vec.Vector) {
	b.Helper()
	cache := core.New(core.Config{
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	})
	if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Index: "kdtree", Dim: dim}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]vec.Vector, n)
	for i := range keys {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		keys[i] = v
		if _, err := cache.Put("f", core.PutRequest{
			Keys:  map[string]vec.Vector{"k": v},
			Value: i,
			Cost:  time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
		b.Fatal(err)
	}
	return cache, keys
}

// BenchmarkFig9Tradeoff times one threshold-restricted lookup against
// 5000 stored downsample-sized keys (Figure 9's per-test-image work).
func BenchmarkFig9Tradeoff(b *testing.B) {
	cache, keys := benchCacheWithEntries(b, 5000, feature.DownsampleDims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Lookup("f", "k", keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// trainedTinyClassifier builds the smallest valid classifier for app
// benches whose hit paths never invoke it.
func trainedTinyClassifier(b *testing.B) *nn.Classifier {
	b.Helper()
	ds := synth.NewCIFARLike(1)
	imgs := []*imaging.RGB{ds.Sample(0, 0).Image, ds.Sample(1, 0).Image}
	clf, err := nn.Train(nn.NewTinyAlexNet(1), imgs, []int{0, 1}, 10)
	if err != nil {
		b.Fatal(err)
	}
	return clf
}

// BenchmarkFig10aDeepLearning times the recognition app's dedup path
// (key generation + lookup hit), the quantity Figure 10(a)'s Potluck bar
// reports.
func BenchmarkFig10aDeepLearning(b *testing.B) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	cache := core.New(core.Config{
		Clock:          clk,
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	})
	env := apps.NewEnv(cache, clk, workload.Mobile)
	app, err := apps.NewRecognitionApp(env, trainedTinyClassifier(b), "bench", true)
	if err != nil {
		b.Fatal(err)
	}
	ds := synth.NewCIFARLike(2)
	img := ds.Sample(0, 0).Image
	if _, err := app.ProcessFrame(img); err != nil { // seed entry
		b.Fatal(err)
	}
	if err := cache.ForceThreshold(apps.RecognitionFunction, apps.RecognitionKeyType, 1e9); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := app.ProcessFrame(img)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Hit {
			b.Fatal("bench must stay on the hit path")
		}
	}
}

// BenchmarkFig10bARRendering times the AR warp fast path (lookup hit +
// WarpToPose) against a full software render, Figure 10(b)'s contrast.
func BenchmarkFig10bARRendering(b *testing.B) {
	scene := &render.Scene{Objects: []render.Object{{
		Mesh:      render.Sphere(24, 32, [3]float64{0.8, 0.3, 0.3}),
		Transform: render.Translate4(render.Vec3{Z: -5}),
	}}}
	r := render.NewRenderer(96, 72)
	from := render.Pose{}
	frame := r.Render(scene, from)
	to := render.Pose{Yaw: 0.04}
	b.Run("warp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			render.WarpToPose(frame, from, to, r.FOV)
		}
	})
	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Render(scene, to)
		}
	})
}

// BenchmarkFig10cMultiApp times one interleaved multi-app step on the
// dedup path: two different "applications" looking up the same shared
// function.
func BenchmarkFig10cMultiApp(b *testing.B) {
	cache, keys := benchCacheWithEntries(b, 1000, feature.DownsampleDims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// App 1 (recognition) and app 2 (AR-cv recognition stage) hit
		// the same entries.
		if _, err := cache.Lookup("f", "k", keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
		if _, err := cache.Lookup("f", "k", keys[(i+1)%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMNISTMultiApp times recognition lookups over MNIST-like keys
// (§5.6's high-correlation workload).
func BenchmarkMNISTMultiApp(b *testing.B) {
	ext, _ := feature.ByName("downsamp")
	ds := synth.NewMNISTLike(3)
	cache := core.New(core.Config{
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	})
	if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Index: "kdtree", Dim: feature.DownsampleDims}); err != nil {
		b.Fatal(err)
	}
	keys := make([]vec.Vector, 200)
	for i := range keys {
		keys[i] = ext.Extract(ds.Sample(i%10, i).Image).Key
		if _, err := cache.Put("f", core.PutRequest{
			Keys: map[string]vec.Vector{"k": keys[i]}, Value: i % 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Lookup("f", "k", keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachePut times one multi-index insertion (the §5.4 "insertion
// overhead is at micro-second level" claim).
func BenchmarkCachePut(b *testing.B) {
	cache := core.New(core.Config{
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	})
	if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Index: "kdtree", Dim: 8}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := vec.Vector{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if _, err := cache.Put("f", core.PutRequest{
			Keys: map[string]vec.Vector{"k": key}, Value: i,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMissThenPut times the protocol's miss path at capacity:
// lookup → miss → put, the put evicting. The shape is the repository
// benchmark's write-evict workload in process: a 4 096-entry importance
// cache, 16 384 key clusters drawn Zipf(0.9), a fresh 16-dim point
// around the drawn centre per request, filled and then aged by 2.5×
// capacity requests. One op is one request that missed, its put
// included; requests that hit run between them untimed. ns/round is the
// miss path's cost and probes/round the k-d tree's part of it, in row
// distances evaluated: a round probes the tree twice, once for the
// lookup and once for the put's neighbour, each within 4·T.
func BenchmarkMissThenPut(b *testing.B) {
	const capacity, clusters, dim = 4096, 16384, 16
	rng := rand.New(rand.NewSource(1))
	centres := make([]vec.Vector, clusters)
	values := make([][]byte, clusters) // one result per cluster, or the tuner learns that everything matches
	cdf := make([]float64, clusters)
	var sum float64
	for c := range centres {
		centres[c] = make(vec.Vector, dim)
		for d := range centres[c] {
			centres[c][d] = rng.NormFloat64() * 100
		}
		values[c] = make([]byte, 256)
		binary.LittleEndian.PutUint32(values[c], uint32(c))
		sum += 1 / math.Pow(float64(c+1), 0.9)
		cdf[c] = sum
	}
	cache := core.New(core.Config{MaxEntries: capacity, Policy: core.PolicyImportance, DisableDropout: true})
	if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Index: index.KindKDTree, Dim: dim}); err != nil {
		b.Fatal(err)
	}
	// request runs one request and reports whether it missed (and put).
	request := func() bool {
		c := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if c >= clusters {
			c = clusters - 1
		}
		key := make(vec.Vector, dim)
		for d := range key {
			key[d] = centres[c][d] + rng.NormFloat64()
		}
		res, err := cache.Lookup("f", "k", key)
		if err != nil {
			b.Fatal(err)
		}
		if res.Hit {
			return false
		}
		cost := time.Duration(5+c%195) * time.Millisecond
		if _, err := cache.Put("f", core.PutRequest{Keys: map[string]vec.Vector{"k": key}, Value: values[c], Cost: cost}); err != nil {
			b.Fatal(err)
		}
		return true
	}
	for i := 0; i < capacity*4; i++ {
		request()
	}
	probes := func() int64 { return cache.FunctionStats()[0].KeyTypes[0].Probes.Probes }
	var spent time.Duration
	var probed int64
	b.ResetTimer()
	for rounds := 0; rounds < b.N; {
		start, before := time.Now(), probes()
		if request() {
			spent += time.Since(start)
			probed += probes() - before
			rounds++
		}
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/round")
	b.ReportMetric(float64(probed)/float64(b.N), "probes/round")
}

// BenchmarkLookupParallel measures cache throughput under concurrent
// mixed traffic: N goroutines issuing 90% lookups / 10% puts, either all
// against one shared function or spread across eight distinct functions
// (the multi-app daemon scenario of §4.2). Run with -cpu=8 to reproduce
// the sharded-locking speedup recorded in DESIGN.md.
func BenchmarkLookupParallel(b *testing.B) {
	// Four dimensions and a small resident set keep the KD-tree search
	// cheap (pruning is ineffective in high dimensions), so the
	// benchmark measures the per-operation overhead the cache adds —
	// locking, allocation, bookkeeping — rather than index scan cost.
	const dim, entries = 4, 128
	for _, nfuncs := range []int{1, 8} {
		for _, telemetryOn := range []bool{false, true} {
			name := fmt.Sprintf("funcs-%d/telemetry-off", nfuncs)
			if telemetryOn {
				name = fmt.Sprintf("funcs-%d/telemetry-on", nfuncs)
			}
			b.Run(name, func(b *testing.B) {
				cfg := core.Config{
					DisableDropout: true,
					Tuner:          core.TunerConfig{WarmupZ: 1},
				}
				if telemetryOn {
					// Full observability: metric series, latency
					// histograms, and the span recorder, as potluckd
					// runs with -admin-addr. DESIGN.md records the
					// measured overhead vs. the telemetry-off run.
					cfg.Telemetry = telemetry.New()
				}
				cache := core.New(cfg)
				rng := rand.New(rand.NewSource(11))
				keys := make([]vec.Vector, entries)
				for i := range keys {
					v := make(vec.Vector, dim)
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					keys[i] = v
				}
				fns := make([]string, nfuncs)
				for f := range fns {
					fns[f] = fmt.Sprintf("f%d", f)
					if err := cache.RegisterFunction(fns[f], core.KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
						b.Fatal(err)
					}
					for i, v := range keys {
						if _, err := cache.Put(fns[f], core.PutRequest{
							Keys:  map[string]vec.Vector{"k": v},
							Value: i,
							Cost:  time.Millisecond,
						}); err != nil {
							b.Fatal(err)
						}
					}
					if err := cache.ForceThreshold(fns[f], "k", 1e9); err != nil {
						b.Fatal(err)
					}
				}
				// Eight worker goroutines regardless of GOMAXPROCS (run
				// with -cpu=8 to give each its own OS thread), so the
				// contention pattern is the same across machines.
				if gomax := runtime.GOMAXPROCS(0); gomax < 8 && 8%gomax == 0 {
					b.SetParallelism(8 / gomax)
				}
				var worker atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					g := int(worker.Add(1)) - 1
					rng := rand.New(rand.NewSource(int64(g) + 100))
					fn := fns[g%len(fns)]
					// Reused across puts; the cache retains the key vectors,
					// never the request map itself.
					putKeys := make(map[string]vec.Vector, 1)
					for i := 0; pb.Next(); i++ {
						key := keys[rng.Intn(len(keys))]
						if rng.Intn(10) == 0 {
							// Puts use fresh keys: re-putting the preloaded
							// keys would pile duplicate-key chains into the
							// KD-tree and the benchmark would measure tree
							// pathology, not locking. A short TTL lets the
							// expiry machinery retire them so the resident
							// set stays at steady state instead of growing
							// with b.N.
							nk := make(vec.Vector, dim)
							for j := range nk {
								nk[j] = rng.NormFloat64()
							}
							putKeys["k"] = nk
							if _, err := cache.Put(fn, core.PutRequest{
								Keys:  putKeys,
								Value: i,
								Cost:  time.Millisecond,
								TTL:   5 * time.Millisecond,
							}); err != nil {
								b.Error(err)
								return
							}
						} else if _, err := cache.Lookup(fn, "k", key); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkWhatIfOverhead measures what attaching the what-if profiler
// costs the hot path, against the same mixed workload shape as
// BenchmarkLookupParallel (one function, 90% lookups / 10% puts), with
// one worker per core: "detached" is the no-tap baseline (the gate:
// zero extra allocations, ns/op within bench.sh's compare window),
// "attached" taps at the default 1-in-64 sample rate (the gate: ≤5%
// over detached, judged by scripts/bench.sh whatif on the median of
// paired att/det runs), and "attached-full" at rate 1 bounds the worst
// case. The consumer worker runs during the attached modes, as it does
// in the daemon.
func BenchmarkWhatIfOverhead(b *testing.B) {
	const dim, entries = 4, 128
	for _, mode := range []string{"detached", "attached", "attached-full"} {
		b.Run(mode, func(b *testing.B) {
			// MaxEntries pins the index size: TTL-based churn would make
			// the live set (and so the per-op scan cost) proportional to
			// throughput, coupling ns/op to machine speed instead of to
			// the profiler under test.
			cfg := core.Config{
				MaxEntries:     2 * entries,
				DisableDropout: true,
				Tuner:          core.TunerConfig{WarmupZ: 1},
			}
			var prof *whatif.Profiler
			if mode != "detached" {
				rate := whatif.DefaultRate
				if mode == "attached-full" {
					rate = 1
				}
				prof = whatif.New(whatif.Config{Rate: rate, Capacity: entries})
				prof.Start()
				defer prof.Close()
				cfg.Tap = prof
			}
			cache := core.New(cfg)
			rng := rand.New(rand.NewSource(11))
			keys := make([]vec.Vector, entries)
			for i := range keys {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				keys[i] = v
			}
			if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
				b.Fatal(err)
			}
			for i, v := range keys {
				if _, err := cache.Put("f", core.PutRequest{
					Keys:  map[string]vec.Vector{"k": v},
					Value: i,
					Cost:  time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
				b.Fatal(err)
			}
			// Unlike BenchmarkLookupParallel this deliberately does NOT
			// oversubscribe workers past GOMAXPROCS: the gate compares
			// attached to detached ns/op, and scheduler churn from
			// 8-goroutines-per-core drowns the few-percent signal on
			// small hosts.
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := int(worker.Add(1)) - 1
				rng := rand.New(rand.NewSource(int64(g) + 100))
				putKeys := make(map[string]vec.Vector, 1)
				for i := 0; pb.Next(); i++ {
					key := keys[rng.Intn(len(keys))]
					if rng.Intn(10) == 0 {
						nk := make(vec.Vector, dim)
						for j := range nk {
							nk[j] = rng.NormFloat64()
						}
						putKeys["k"] = nk
						if _, err := cache.Put("f", core.PutRequest{
							Keys:  putKeys,
							Value: i,
							Cost:  time.Millisecond,
						}); err != nil {
							b.Error(err)
							return
						}
					} else if _, err := cache.Lookup("f", "k", key); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}

	// "paired" is the series the ≤5% gate reads: it alternates ~16k-op
	// batches between an untapped and a tapped cache inside one run,
	// accumulating wall time per mode, so second-scale machine-speed
	// drift (shared hosts) cancels at batch granularity instead of
	// biasing whole series. Each attached batch ends with a synchronous
	// Drain, billing the consumer's simulation work to the attached
	// side — conservative on multi-core hosts where the consumer runs
	// on a spare core. The overhead-% metric is (att/det − 1)·100.
	b.Run("paired", func(b *testing.B) {
		build := func(tap *whatif.Profiler) *core.Cache {
			cfg := core.Config{
				MaxEntries:     2 * entries,
				DisableDropout: true,
				Tuner:          core.TunerConfig{WarmupZ: 1},
			}
			if tap != nil {
				cfg.Tap = tap
			}
			cache := core.New(cfg)
			if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < entries; i++ {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				if _, err := cache.Put("f", core.PutRequest{
					Keys:  map[string]vec.Vector{"k": v},
					Value: i,
					Cost:  time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
				b.Fatal(err)
			}
			return cache
		}
		prof := whatif.New(whatif.Config{Rate: whatif.DefaultRate, Capacity: entries})
		prof.Start()
		defer prof.Close()
		type driver struct {
			cache   *core.Cache
			rng     *rand.Rand
			keys    []vec.Vector
			putKeys map[string]vec.Vector
			ops     int
			ns      int64
		}
		mk := func(cache *core.Cache) *driver {
			rng := rand.New(rand.NewSource(11))
			keys := make([]vec.Vector, entries)
			for i := range keys {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				keys[i] = v
			}
			return &driver{
				cache: cache, keys: keys,
				rng:     rand.New(rand.NewSource(100)),
				putKeys: make(map[string]vec.Vector, 1),
			}
		}
		det, att := mk(build(nil)), mk(build(prof))
		batch := func(d *driver, n int, drain bool) {
			start := time.Now()
			for i := 0; i < n; i++ {
				key := d.keys[d.rng.Intn(len(d.keys))]
				if d.rng.Intn(10) == 0 {
					nk := make(vec.Vector, dim)
					for j := range nk {
						nk[j] = d.rng.NormFloat64()
					}
					d.putKeys["k"] = nk
					if _, err := d.cache.Put("f", core.PutRequest{
						Keys:  d.putKeys,
						Value: i,
						Cost:  time.Millisecond,
					}); err != nil {
						b.Error(err)
						return
					}
				} else if _, err := d.cache.Lookup("f", "k", key); err != nil {
					b.Error(err)
					return
				}
			}
			if drain {
				prof.Drain()
			}
			d.ns += time.Since(start).Nanoseconds()
			d.ops += n
		}
		const batchOps = 16384
		batch(det, batchOps, false) // warm both caches and the ghosts
		batch(att, batchOps, true)
		det.ops, det.ns, att.ops, att.ns = 0, 0, 0, 0
		b.ResetTimer()
		for left, turn := b.N, 0; left > 0; turn++ {
			n := batchOps
			if n > left {
				n = left
			}
			if turn%2 == 0 {
				batch(det, n, false)
			} else {
				batch(att, n, true)
			}
			left -= n
		}
		b.StopTimer()
		if det.ops > 0 && att.ops > 0 {
			detNs := float64(det.ns) / float64(det.ops)
			attNs := float64(att.ns) / float64(att.ops)
			b.ReportMetric(detNs, "det-ns/op")
			b.ReportMetric(attNs, "att-ns/op")
			b.ReportMetric((attNs/detNs-1)*100, "overhead-%")
		}
	})
}

// BenchmarkDurablePut measures the write-path overhead of the durable
// store: the same put stream against a purely in-memory cache, a cache
// logging with the default interval fsync policy, and one syncing every
// append. The "store-off" series is the bench.sh steady-state baseline
// the 10% gate compares against.
func BenchmarkDurablePut(b *testing.B) {
	const dim = 4
	for _, mode := range []string{"store-off", "store-interval", "store-always"} {
		b.Run(mode, func(b *testing.B) {
			cfg := core.Config{
				DisableDropout: true,
				Tuner:          core.TunerConfig{WarmupZ: 1},
			}
			var durable *store.Log
			if mode != "store-off" {
				policy := store.FsyncInterval
				if mode == "store-always" {
					policy = store.FsyncAlways
				}
				var err error
				durable, err = store.Open(store.Config{Dir: b.TempDir(), Fsync: policy})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Store = durable
			}
			cache := core.New(cfg)
			if err := cache.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			keys := make([]vec.Vector, 1024)
			for i := range keys {
				v := make(vec.Vector, dim)
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				keys[i] = v
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Put("f", core.PutRequest{
					Keys:  map[string]vec.Vector{"k": keys[i%len(keys)]},
					Value: i,
					Cost:  time.Millisecond,
					Size:  64,
					TTL:   time.Minute,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if durable != nil {
				durable.Close()
			}
		})
	}
}

func init() {
	// Keep the imports honest if benchmarks are filtered.
	_ = fmt.Sprintf
}
