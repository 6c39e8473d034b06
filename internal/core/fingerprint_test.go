package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/index"
	"repro/internal/vec"
)

// Decision fingerprints: fixed-count replays of seeded streams through a
// bare Cache on a virtual clock, with every decision count and the final
// threshold pinned bit for bit. A change that is meant to leave Potluck's
// approximation alone must leave these pins alone; a change that moves
// one says so here and states why in CHANGES.md.

// fingerprint is what a replay decided.
type fingerprint struct {
	hits, wrong, misses, dropouts, puts, evictions int64
	threshold                                      uint64 // Float64bits of the final threshold
}

// fingerprintOp is one lookup, followed on a miss or dropout by a put of
// value at cost.
type fingerprintOp struct {
	key   vec.Vector
	value []byte
	cost  time.Duration
}

// replayFingerprint runs seed ops, then aging ops, then counts the
// decisions of window ops, one at a time, a millisecond of virtual time
// apart. A hit is wrong when it serves another value than the op's.
func replayFingerprint(t *testing.T, cfg Config, spec KeyTypeSpec, seed, aging, window func() fingerprintOp, nSeed, nAging, nWindow int) fingerprint {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	cfg.Clock = clk
	c := New(cfg)
	if err := c.RegisterFunction("f", spec); err != nil {
		t.Fatal(err)
	}
	var fp fingerprint
	run := func(next func() fingerprintOp, n int) {
		for i := 0; i < n; i++ {
			o := next()
			clk.Advance(time.Millisecond)
			res, err := c.Lookup("f", spec.Name, o.key)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case res.Hit:
				fp.hits++
				if !bytes.Equal(res.Value.([]byte), o.value) {
					fp.wrong++
				}
				continue
			case res.Dropout:
				fp.dropouts++
			default:
				fp.misses++
			}
			if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{spec.Name: o.key}, Value: o.value, Cost: o.cost, App: "bench"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(seed, nSeed)
	run(aging, nAging)
	before := c.Stats()
	fp = fingerprint{}
	run(window, nWindow)
	after := c.Stats()
	ts, err := c.TunerStats("f", spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	fp.puts, fp.evictions = after.Puts-before.Puts, after.Evictions-before.Evictions
	fp.threshold = math.Float64bits(ts.Threshold)
	return fp
}

// onEachDistanceKernel runs a fingerprint once on each kernel vec scores
// rows with, as a subtest: the Go loops, and the AVX2 kernel where the
// CPU has AVX2. Both must make every decision with the same bits.
func onEachDistanceKernel(t *testing.T, f func(t *testing.T)) {
	was := vec.UseAVX2(false)
	t.Cleanup(func() { vec.UseAVX2(was) })
	kernels := []bool{false}
	if cpu.HasAVX2 {
		kernels = append(kernels, true)
	}
	for _, avx := range kernels {
		vec.UseAVX2(avx)
		t.Run(fmt.Sprintf("avx2=%v", avx), f)
	}
}

// fingerprintValue is a value of size bytes whose first four carry label.
func fingerprintValue(label uint32, size int) []byte {
	v := make([]byte, size)
	binary.BigEndian.PutUint32(v, label)
	for i := 4; i < size; i++ {
		v[i] = byte(label) + byte(i)
	}
	return v
}

// writeEvictStream is the repo benchmark's write-evict stream, copied
// from bench/workloads.go (this module cannot import bench/): 16 384
// 16-dim clusters with centres drawn at sigma 100, drawn by Zipf(0.9)
// rank, a fresh key at sigma 1 around the centre each time, a 1 KiB
// value per cluster and 5–200 ms of declared cost. conn picks the
// connection's draw sequence as the benchmark does (-1 is set-up).
type writeEvictStream struct {
	centres [][]float64
	values  [][]byte
	costs   []time.Duration
	cdf     []float64
}

const (
	weClusters = 16384
	weDim      = 16
)

func newWriteEvictStream(seed int64) *writeEvictStream {
	w := &writeEvictStream{
		centres: make([][]float64, weClusters), values: make([][]byte, weClusters),
		costs: make([]time.Duration, weClusters), cdf: make([]float64, weClusters),
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for c := range w.centres {
		w.centres[c] = make([]float64, weDim)
		for d := range w.centres[c] {
			w.centres[c][d] = rng.NormFloat64() * 100
		}
		w.values[c] = fingerprintValue(uint32(c), 1024)
		w.costs[c] = 5*time.Millisecond + time.Duration(rng.Int63n(int64(195*time.Millisecond)))
		sum += 1 / math.Pow(float64(c+1), 0.9)
		w.cdf[c] = sum
	}
	for c := range w.cdf {
		w.cdf[c] /= sum
	}
	return w
}

func (w *writeEvictStream) stream(seed int64, conn int) func() fingerprintOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
	return func() fingerprintOp {
		c := min(sort.SearchFloat64s(w.cdf, rng.Float64()), weClusters-1)
		key := make(vec.Vector, weDim)
		for d := range key {
			key[d] = w.centres[c][d] + rng.NormFloat64()
		}
		return fingerprintOp{key: key, value: w.values[c], cost: w.costs[c]}
	}
}

// TestWriteEvictFingerprint replays the write-evict benchmark's stream at
// seed 1 on the benchmark's cache configuration (capacity 4 096,
// importance eviction, cache Seed 0), aged as the benchmark ages it —
// 6 144 set-up ops, 10 240 aging ops — and pins the next 40 000. Every value is per cluster and a cluster's keys lie
// within ~10 of each other while clusters lie ~570 apart, so no bound on
// the neighbour search at or beyond the threshold changes a decision.
func TestWriteEvictFingerprint(t *testing.T) {
	onEachDistanceKernel(t, func(t *testing.T) {
		const seed = 1
		w := newWriteEvictStream(seed)
		window := w.stream(seed, 0)
		got := replayFingerprint(t,
			Config{MaxEntries: weClusters / 4, Policy: PolicyImportance},
			KeyTypeSpec{Name: "vec", Index: "kdtree", Dim: weDim},
			w.stream(seed, -1), window, window, weClusters/4*3/2, weClusters/4*5/2, 40_000)
		want := fingerprint{hits: 23855, misses: 12184, dropouts: 3961, puts: 16145, evictions: 16145, threshold: 0x402263888c5349a4}
		if got != want {
			t.Errorf("write-evict decisions moved:\n got %+v (threshold %v)\nwant %+v (threshold %v)",
				got, math.Float64frombits(got.threshold), want, math.Float64frombits(want.threshold))
		}
	})
}

// sceneCutStream is an app-vision-shaped feed: scenes of 16 frames that
// pan slowly around a centre drawn at sigma 100, and a recogniser that
// names only three labels, so a scene's label repeats two scenes later,
// ~570 away. A small LRU cache still holds the last scenes' frames when
// a new one starts, so the first frame of a scene often finds its
// nearest neighbour far away in a scene with the same label: the
// same-valued far neighbour that loosens Algorithm 1's threshold.
func sceneCutStream(seed int64) func() fingerprintOp {
	const (
		scenes, perScene, labels = 24, 16, 3
	)
	rng := rand.New(rand.NewSource(seed))
	feed := make([]fingerprintOp, 0, scenes*perScene)
	for s := 0; s < scenes; s++ {
		centre, pan := make(vec.Vector, weDim), make(vec.Vector, weDim)
		for d := range centre {
			centre[d], pan[d] = rng.NormFloat64()*100, rng.NormFloat64()*0.3
		}
		value := fingerprintValue(uint32(s%labels), 4)
		for j := 0; j < perScene; j++ {
			key := make(vec.Vector, weDim)
			for d := range key {
				key[d] = centre[d] + float64(pan[d]*float64(j)) + float64(rng.NormFloat64()*0.2)
			}
			feed = append(feed, fingerprintOp{key: key, value: value, cost: 8 * time.Millisecond})
		}
	}
	i := 0
	return func() fingerprintOp {
		o := feed[i%len(feed)]
		i++
		return o
	}
}

// TestSceneCutFingerprint pins the scene-cut feed: two passes over the
// feed to warm up, then 4 000 frames counted. With an unbounded neighbour
// search, the first frame of a scene whose nearest entry was a same-label
// scene ~570 away loosened the threshold toward it, to 263.9 by the end,
// and 97 hits served another scene's label (hits 3 433, misses 206). The
// search stops at SearchRadius·T, so those far neighbours are no longer
// seen: the threshold ends at 21.3 and no hit is wrong.
func TestSceneCutFingerprint(t *testing.T) {
	onEachDistanceKernel(t, func(t *testing.T) {
		feed := sceneCutStream(1)
		got := replayFingerprint(t,
			Config{MaxEntries: 32, Policy: PolicyLRU, Seed: 1},
			KeyTypeSpec{Name: "frame", Index: "kdtree", Dim: weDim},
			feed, feed, feed, 0, 2*24*16, 4_000)
		want := fingerprint{hits: 3352, misses: 287, dropouts: 361, puts: 648, evictions: 648, threshold: 0x403550b1ae2b7a08}
		if got != want {
			t.Errorf("scene-cut decisions moved:\n got %+v (threshold %v)\nwant %+v (threshold %v)",
				got, math.Float64frombits(got.threshold), want, math.Float64frombits(want.threshold))
		}
	})
}

// indexScaleStream is the repo benchmark's index-scale data, copied from
// bench/workloads.go: 8 000 16-dim keys around 256 centres (sigma 2
// around centres drawn at sigma 100), valued by cluster, and 4 096
// queries, each 0.5 off a stored key and labelled with its cluster, or
// one in twenty a far point (5 000 ± 100 on every axis) whose label no
// entry has.
func indexScaleStream(seed int64) (corpus, queries []fingerprintOp) {
	const (
		entries, dim, clusters, nq = 8000, 16, 256, 4096
		farShare                   = 0.05
	)
	rng := rand.New(rand.NewSource(seed))
	centres := make([]vec.Vector, clusters)
	for i := range centres {
		centres[i] = make(vec.Vector, dim)
		for d := range centres[i] {
			centres[i][d] = rng.NormFloat64() * 100
		}
	}
	corpus = make([]fingerprintOp, entries)
	for i := range corpus {
		c := rng.Intn(clusters)
		key := make(vec.Vector, dim)
		for d := range key {
			key[d] = centres[c][d] + rng.NormFloat64()*2
		}
		corpus[i] = fingerprintOp{key: key, value: fingerprintValue(uint32(c), 4), cost: 10 * time.Millisecond}
	}
	queries = make([]fingerprintOp, nq)
	for i := range queries {
		key := make(vec.Vector, dim)
		if rng.Float64() < farShare {
			for d := range key {
				key[d] = 5000 + float64(rng.NormFloat64()*100)
			}
			queries[i] = fingerprintOp{key: key, value: fingerprintValue(math.MaxUint32, 4)}
			continue
		}
		j := rng.Intn(entries)
		for d := range key {
			key[d] = corpus[j].key[d] + float64(rng.NormFloat64()*0.5)
		}
		queries[i] = fingerprintOp{key: key, value: corpus[j].value}
	}
	return corpus, queries
}

// TestIndexScaleFingerprint replays the index-scale benchmark's data at
// seed 1 on its cache configuration (HNSW at EfSearch 512): the corpus is
// put, then the queries are looked up three times over with no put on a
// miss, as the benchmark's window runs them. Every query near the corpus
// has its own cluster within a few units while clusters lie ~570 apart,
// so a search that stops at what lies within the bound it is given
// decides as the full one does.
func TestIndexScaleFingerprint(t *testing.T) {
	onEachDistanceKernel(t, func(t *testing.T) {
		corpus, queries := indexScaleStream(1)
		clk := clock.NewVirtual(time.Unix(1000, 0))
		c := New(Config{Clock: clk, IndexOptions: index.Options{HNSW: index.HNSWConfig{EfSearch: 512}}})
		spec := KeyTypeSpec{Name: "vec", Index: "hnsw", Dim: 16}
		if err := c.RegisterFunction("f", spec); err != nil {
			t.Fatal(err)
		}
		for _, o := range corpus {
			clk.Advance(time.Millisecond)
			if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{spec.Name: o.key}, Value: o.value, Cost: o.cost, App: "bench"}); err != nil {
				t.Fatal(err)
			}
		}
		var got fingerprint
		for pass := 0; pass < 3; pass++ {
			for _, o := range queries {
				clk.Advance(time.Millisecond)
				res, err := c.Lookup("f", spec.Name, o.key)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case res.Hit:
					got.hits++
					if !bytes.Equal(res.Value.([]byte), o.value) {
						got.wrong++
					}
				case res.Dropout:
					got.dropouts++
				default:
					got.misses++
				}
			}
		}
		ts, err := c.TunerStats("f", spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		got.threshold = math.Float64bits(ts.Threshold)
		want := fingerprint{hits: 10427, misses: 631, dropouts: 1230, threshold: 0x402f3f91983c5522}
		if got != want {
			t.Errorf("index-scale decisions moved:\n got %+v (threshold %v)\nwant %+v (threshold %v)",
				got, math.Float64frombits(got.threshold), want, math.Float64frombits(want.threshold))
		}
	})
}
