package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A workload is one set of inputs, generated from the seed, plus the
// daemon flags it runs against. The flags are frozen here and repeated in
// README.md; BENCHMARK.json may carry no extra keys.
type workload interface {
	name() string
	// why is BENCHMARK.json's one line on what the workload isolates.
	why() string
	// daemonFlags are the flags after -network/-addr; dir is the run's
	// private directory.
	daemonFlags(dir string) []string
	// cacheConfig is the same configuration for the traced in-process
	// passes.
	cacheConfig() CacheConfig
	target() target
	// prepare makes every input from the seed. small shrinks the inputs
	// for smoke tests.
	prepare(seed int64, small bool) error
	// seedOps is the set-up stream, run in order on one connection.
	seedOps() []*op
	// stream is connection conn's endless op stream for the window.
	stream(conn int) func() *op
	// opsPerRequest is how many operations one request of the stream
	// completes (16 for the batched workload).
	opsPerRequest() int
	// callers is how many callers the closed loop runs, pipelined over
	// the two connections.
	callers() int
	// pinned says whether the daemon runs on a processor of its own and
	// the benchmark on the others; see pinApart.
	pinned() bool
	// agingOps is how many requests of the stream the traced passes
	// replay unrecorded before the traced ones, so that they start from
	// the state the window's warm-up leaves, not from the seeded one.
	agingOps() int
}

// connections is how many client connections every workload uses: this
// host has two cores, and a third connection would only queue.
const connections = 2

// closedCallers is how many callers a closed loop runs unless the
// workload says otherwise, four pipelined on each connection. With one
// caller per connection both processes sleep between requests, and
// throughput measures how fast this host wakes a thread (it moved 30%
// between identical runs); with four the daemon always finds the next
// request in its socket buffer and throughput measures the work per
// request.
const closedCallers = 4 * connections

func allWorkloads() []workload {
	return []workload{&svcRead{}, &writeEvict{}, &indexScale{}, &appVision{}}
}

func workloadByName(name string) workload {
	for _, w := range allWorkloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// Frames are 64x48: the downsamp key is 16x16x3 whatever the frame size,
// and small frames keep a 768-frame pool under 60 MB.
const (
	frameW, frameH = 64, 48
	// panPerFrame keeps the default feed's motion (2 px on a 160 px
	// frame) at the smaller size.
	panPerFrame = 2.0 * frameW / 160
)

func streamRNG(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
}

// ---------------------------------------------------------------- svc-read

// svcRead: reader apps sharing a warm cache. Set-up stores the even
// frames of four feeds; the window looks up the odd ones, so every hit is
// an approximate match, nothing is put and nothing evicts. Keys are the
// downsamp key pooled to a 4x4 luminance thumbnail: at 16 dimensions the
// k-d tree answers in about a microsecond and the service layer does
// almost all the work. (At downsamp's own 768 dimensions the tree probes
// most entries at 0.8 ns per dimension, and the index is nine tenths of a
// lookup; see README.md, "Sizing".)
type svcRead struct {
	seed   int64
	frames int
	seeds  []*op // even frames, feed-major
	reads  []*op // odd frames
}

const (
	svcFeeds    = 4
	svcFrames   = 1024
	svcCutEvery = 64
	svcSide     = 4 // thumbnail side: 16-dimensional keys
	// svcOpenRate is phase A's fixed arrival rate, about half of this
	// host's closed-loop capacity on this workload.
	svcOpenRate = 11000.0
)

func (w *svcRead) name() string { return "svc-read" }
func (w *svcRead) why() string {
	return "reader apps on a warm k-d tree cache, 16-dim keys, no puts, nothing evicts: the service layer is ~90% of a lookup, so an IPC or codec change shows here and nowhere else"
}

// The window puts nothing, so the tuner stays where set-up leaves it.
// With the default warm-up of 100 puts that is one sample of Algorithm
// 1's sawtooth: right after a tightening the threshold is a quarter of
// its usual value, and over 60 seeds the hit rate ranged from 0.59 to
// 0.92. With a warm-up that covers the set-up, the threshold is the
// algorithm's estimate from every stored frame and its neighbour.
func (w *svcRead) daemonFlags(dir string) []string {
	return []string{"-warmup", strconv.Itoa(len(w.seeds))}
}
func (w *svcRead) cacheConfig() CacheConfig {
	return CacheConfig{Tuner: TunerConfig{WarmupZ: len(w.seeds)}}
}
func (w *svcRead) opsPerRequest() int { return 1 }

// A lookup here costs the daemon 15 us, so with four callers on a
// connection both sides still sleep and wake many times a millisecond,
// and what a wake-up costs on this host changes by the minute. With 32 on
// each, neither side runs dry: in alternating runs the throughput of
// eight callers spread by 0.12 and that of 64 by 0.06, and when the host
// changed pace between two runs the first moved by 40% and the second by
// 22%. The other closed loops spend a millisecond per request in the
// daemon and gain nothing from more callers.
func (w *svcRead) callers() int { return 32 * connections }

// Both processes are busy all the time here, and where the kernel puts
// their threads decides a quarter of the throughput; the other workloads
// leave the benchmark idle or need both processors for one side.
func (w *svcRead) pinned() bool { return true }

func (w *svcRead) agingOps() int { return 0 } // the window puts nothing
func (w *svcRead) target() target {
	return target{"svcRead", KeyTypeDef{Name: "thumb16", Index: "kdtree", Dim: svcSide * svcSide}}
}

// thumbnail pools a 16x16x3 downsamp key into svcSide x svcSide mean
// luminances.
func thumbnail(key Vector) Vector {
	const side, cell = 16, 16 / svcSide
	out := make(Vector, svcSide*svcSide)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			for c := 0; c < 3; c++ {
				out[(y/cell)*svcSide+x/cell] += key[(y*side+x)*3+c] / (cell * cell * 3)
			}
		}
	}
	return out
}

func (w *svcRead) prepare(seed int64, small bool) error {
	w.seed, w.frames = seed, svcFrames
	if small {
		w.frames = 128
	}
	ext, err := featureByName("downsamp")
	if err != nil {
		return err
	}
	keys := make([][]Vector, svcFeeds)
	var wg sync.WaitGroup
	for f := range keys {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			feed := newVideo(VideoConfig{Seed: seed*svcFeeds + int64(f), W: frameW, H: frameH,
				CutEvery: svcCutEvery, PanPerFrame: panPerFrame})
			keys[f] = make([]Vector, w.frames)
			for i := range keys[f] {
				keys[f][i] = thumbnail(ext.Extract(feed.Frame(i)).Key)
			}
		}(f)
	}
	wg.Wait()
	w.seeds, w.reads = nil, nil
	scenesPerFeed := (w.frames + svcCutEvery - 1) / svcCutEvery
	for f := range keys {
		for i, k := range keys[f] {
			// Ground truth is the frame's scene.
			scene := uint32(f*scenesPerFeed + i/svcCutEvery)
			o := &op{kind: opLookup, keys: []Vector{k}, labels: []uint32{scene}}
			if i%2 == 0 {
				o.value, o.cost = labelValue(scene, 4), 10*time.Millisecond
				w.seeds = append(w.seeds, o)
			} else {
				w.reads = append(w.reads, o)
			}
		}
	}
	return nil
}

func (w *svcRead) seedOps() []*op { return w.seeds }

// stream draws odd frames uniformly: popularity is flat, and similarity
// is the one-frame camera motion between a query and its stored
// neighbours.
func (w *svcRead) stream(conn int) func() *op {
	rng := streamRNG(w.seed, conn)
	return func() *op { return w.reads[rng.Intn(len(w.reads))] }
}

// ------------------------------------------------------------- write-evict

// writeEvict: the capacity-bound write path as deployed. Four times more
// key clusters than entries under Zipf 0.9, so every put at capacity
// evicts, with the durable store attached.
type writeEvict struct {
	seed     int64
	clusters int
	centres  [][]float64
	values   [][]byte
	costs    []time.Duration
	cdf      []float64
}

const (
	weClusters   = 16384 // four times the capacity
	weDim        = 16
	weZipf       = 0.9
	weValueBytes = 1024
	weNoise      = 1.0 // per-dimension sigma of a key around its centre
	// weFsyncInterval is the stated flush policy: -fsync interval, 100 ms.
	weFsyncInterval = 100 * time.Millisecond
)

func (w *writeEvict) name() string { return "write-evict" }
func (w *writeEvict) why() string {
	return "capacity-bound write path: 4x more Zipf(0.9) key clusters than entries, importance eviction on every put, durable store with -fsync interval, then kill -9 and recover: core eviction and store"
}
func (w *writeEvict) daemonFlags(dir string) []string {
	return []string{"-max-entries", strconv.Itoa(w.capacity()), "-policy", "importance",
		"-data-dir", filepath.Join(dir, "data"), "-fsync", "interval", "-fsync-interval", weFsyncInterval.String()}
}
func (w *writeEvict) cacheConfig() CacheConfig {
	return CacheConfig{MaxEntries: w.capacity(), Policy: policyImportance}
}
func (w *writeEvict) capacity() int      { return w.clusters / 4 }
func (w *writeEvict) opsPerRequest() int { return 1 }
func (w *writeEvict) callers() int       { return closedCallers }
func (w *writeEvict) pinned() bool       { return false }

// A put at capacity costs six times more once the cache has churned
// through its capacity again than right after the fill, and the window's
// median request comes after some 25 000 others.
func (w *writeEvict) agingOps() int { return w.capacity() * 5 / 2 }
func (w *writeEvict) target() target {
	return target{"writeEvict", KeyTypeDef{Name: "vec", Index: "kdtree", Dim: weDim}}
}

func (w *writeEvict) prepare(seed int64, small bool) error {
	w.seed, w.clusters = seed, weClusters
	if small {
		w.clusters = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	w.centres = make([][]float64, w.clusters)
	w.values = make([][]byte, w.clusters)
	w.costs = make([]time.Duration, w.clusters)
	w.cdf = make([]float64, w.clusters)
	var sum float64
	for c := range w.centres {
		w.centres[c] = make([]float64, weDim)
		for d := range w.centres[c] {
			w.centres[c][d] = rng.NormFloat64() * 100
		}
		w.values[c] = labelValue(uint32(c), weValueBytes)
		// 5-200 ms of declared compute, so importance has something to rank.
		w.costs[c] = 5*time.Millisecond + time.Duration(rng.Int63n(int64(195*time.Millisecond)))
		sum += 1 / math.Pow(float64(c+1), weZipf)
		w.cdf[c] = sum
	}
	for c := range w.cdf {
		w.cdf[c] /= sum
	}
	return nil
}

// stream draws a cluster by Zipf rank and a fresh point around its
// centre, so no two keys are equal and every hit is approximate.
func (w *writeEvict) stream(conn int) func() *op {
	rng := streamRNG(w.seed, conn)
	return func() *op {
		c := sort.SearchFloat64s(w.cdf, rng.Float64())
		if c >= w.clusters {
			c = w.clusters - 1
		}
		key := make(Vector, weDim)
		for d := range key {
			key[d] = w.centres[c][d] + rng.NormFloat64()*weNoise
		}
		return &op{kind: opLookup, keys: []Vector{key}, value: w.values[c], cost: w.costs[c], labels: []uint32{uint32(c)}}
	}
}

// seedOps fills the cache to about its capacity before the window.
func (w *writeEvict) seedOps() []*op {
	next := w.stream(-1)
	ops := make([]*op, w.capacity()*3/2)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

// probeOps are the durability phase's probe puts: keys far outside every
// cluster, with a cost (a day) no entry's cost times hit count reaches, so
// that importance keeps them.
func (w *writeEvict) probeOps(n int) []*op {
	rng := rand.New(rand.NewSource(w.seed ^ 0x70726f62))
	ops := make([]*op, n)
	for i := range ops {
		key := make(Vector, weDim)
		for d := range key {
			key[d] = 1e4 + rng.NormFloat64()*1000
		}
		label := uint32(w.clusters + i)
		ops[i] = &op{kind: opLookup, keys: []Vector{key}, value: labelValue(label, weValueBytes),
			cost: 24 * time.Hour, labels: []uint32{label}}
	}
	return ops
}

// ------------------------------------------------------------- index-scale

// indexScale: a large clustered corpus behind the HNSW index, queried in
// MultiLookup batches of 16. The index probe is most of the time.
type indexScale struct {
	seed    int64
	corpus  []Vector
	cluster []uint32
	batches []*op
}

const (
	isEntries  = 8000
	isDim      = 16
	isClusters = 256
	isQueries  = 4096
	isBatch    = 16
	isFarShare = 0.05
	isSeedPuts = 500 // keys per MultiPut frame during set-up
	// isEfSearch widens HNSW's search pool from the default 64: a
	// high-recall configuration whose probe is nine tenths of a request.
	isEfSearch = 512
)

func (w *indexScale) name() string { return "index-scale" }
func (w *indexScale) why() string {
	return "MultiLookup batches of 16 on 8000 clustered 16-dim entries behind HNSW with -hnsw-efs 512, recall checked against a linear scan: the index probe is ~90% of a request; exercises the batch wire path"
}
func (w *indexScale) daemonFlags(dir string) []string {
	return []string{"-hnsw-efs", strconv.Itoa(isEfSearch)}
}
func (w *indexScale) cacheConfig() CacheConfig {
	return CacheConfig{IndexOptions: IndexOptions{HNSW: HNSWConfig{EfSearch: isEfSearch}}}
}
func (w *indexScale) opsPerRequest() int { return isBatch }
func (w *indexScale) callers() int       { return closedCallers }
func (w *indexScale) pinned() bool       { return false }
func (w *indexScale) agingOps() int      { return 0 } // the window puts nothing
func (w *indexScale) target() target {
	return target{"indexScale", KeyTypeDef{Name: "vec", Index: "hnsw", Dim: isDim}}
}

// clusteredCorpus is the table2scale experiment's corpus: points around
// 256 centres, sigma 2 around centres drawn with sigma 100.
func clusteredCorpus(rng *rand.Rand, n int) (corpus []Vector, cluster []uint32) {
	centres := make([]Vector, isClusters)
	for i := range centres {
		centres[i] = make(Vector, isDim)
		for d := range centres[i] {
			centres[i][d] = rng.NormFloat64() * 100
		}
	}
	corpus, cluster = make([]Vector, n), make([]uint32, n)
	for i := range corpus {
		c := rng.Intn(isClusters)
		v := make(Vector, isDim)
		for d := range v {
			v[d] = centres[c][d] + rng.NormFloat64()*2
		}
		corpus[i], cluster[i] = v, uint32(c)
	}
	return corpus, cluster
}

func (w *indexScale) prepare(seed int64, small bool) error {
	w.seed = seed
	n, nq := isEntries, isQueries
	if small {
		n, nq = 1500, 512
	}
	rng := rand.New(rand.NewSource(seed))
	w.corpus, w.cluster = clusteredCorpus(rng, n)
	queries := make([]Vector, nq)
	labels := make([]uint32, nq)
	for i := range queries {
		q := make(Vector, isDim)
		if rng.Float64() < isFarShare {
			// A far point: nothing is within any learned threshold.
			for d := range q {
				q[d] = 5000 + rng.NormFloat64()*100
			}
			labels[i] = math.MaxUint32
		} else {
			j := rng.Intn(n)
			for d := range q {
				q[d] = w.corpus[j][d] + rng.NormFloat64()*0.5
			}
			labels[i] = w.cluster[j]
		}
		queries[i] = q
	}
	// Ground truth for recall@1: the true nearest distance by linear scan.
	nearest := make([]float64, nq)
	var wg sync.WaitGroup
	for part := 0; part < connections; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < nq; i += connections {
				best := math.Inf(1)
				for _, k := range w.corpus {
					if d := distance(queries[i], k); d < best {
						best = d
					}
				}
				nearest[i] = best
			}
		}(part)
	}
	wg.Wait()
	w.batches = nil
	for i := 0; i+isBatch <= nq; i += isBatch {
		w.batches = append(w.batches, &op{kind: opMultiLookup, keys: queries[i : i+isBatch],
			labels: labels[i : i+isBatch], nearest: nearest[i : i+isBatch]})
	}
	return nil
}

// seedOps stores the corpus; an entry's value is its cluster, so the
// tuner sees same-valued neighbours and learns a threshold.
func (w *indexScale) seedOps() []*op {
	var ops []*op
	for i := 0; i < len(w.corpus); i += isSeedPuts {
		j := min(i+isSeedPuts, len(w.corpus))
		ops = append(ops, &op{kind: opMultiPut, keys: w.corpus[i:j], labels: w.cluster[i:j], cost: 10 * time.Millisecond})
	}
	return ops
}

func (w *indexScale) stream(conn int) func() *op {
	i := streamRNG(w.seed, conn).Intn(len(w.batches))
	return func() *op {
		i = (i + 1) % len(w.batches)
		return w.batches[i]
	}
}

// -------------------------------------------------------------- app-vision

// appVision: the paper's Figure 3 pipeline in wall-clock time. Two apps
// read one correlated feed at different offsets and share the
// objectRecognition function; see vision.go for the frame loop.
type appVision struct {
	seed   int64
	frames []*Image
	native []uint32 // the classifier's own label for each frame
	clf    *Classifier
	ext    Extractor
}

const (
	avScenes      = 24
	avPerScene    = 32
	avTrainPer    = 4  // training frames per scene
	avCapacity    = 32 // entries; see daemonFlags
	avPotluckRun  = 64 // frames per Potluck block
	avNativeRun   = 4  // frames per native block
	avArcvOffset  = 8  // arcv starts this many frames ahead of lens
	avNetworkSeed = 7
)

func (w *appVision) name() string { return "app-vision" }
func (w *appVision) why() string {
	return "the paper's Fig 3/10 pipeline in wall-clock time: two apps on one camera feed share objectRecognition: keygen, lookup, classify on miss, put; feature, nn, hit rate decide it, service is <5% of a miss"
}

// The frame pool is replayed many times in a window, which a camera
// never does. A small LRU cache forgets a frame long before the feed
// returns to it, so hits stay approximate matches with recent frames.
func (w *appVision) daemonFlags(dir string) []string {
	return []string{"-max-entries", strconv.Itoa(avCapacity), "-policy", "lru"}
}
func (w *appVision) cacheConfig() CacheConfig {
	return CacheConfig{MaxEntries: avCapacity, Policy: policyLRU}
}
func (w *appVision) opsPerRequest() int { return 1 }
func (w *appVision) callers() int       { return connections } // lens and arcv
func (w *appVision) pinned() bool       { return false }

// The tuner activates after 100 puts; the passes start past that.
func (w *appVision) agingOps() int { return 512 }
func (w *appVision) target() target {
	return target{"objectRecognition", KeyTypeDef{Name: "downsamp", Index: "kdtree", Dim: 768}}
}

func (w *appVision) prepare(seed int64, small bool) error {
	w.seed = seed
	scenes := avScenes
	if small {
		scenes = 6
	}
	var err error
	if w.ext, err = featureByName("downsamp"); err != nil {
		return err
	}
	feed := newVideo(VideoConfig{Seed: seed, W: frameW, H: frameH, CutEvery: avPerScene, PanPerFrame: panPerFrame})
	w.frames = make([]*Image, scenes*avPerScene)
	for i := range w.frames {
		w.frames[i] = feed.Frame(i)
	}
	// The recogniser is a fixed network with a head fitted to this feed's
	// scenes: an imperfect classifier whose label changes at scene cuts.
	var imgs []*Image
	var labels []int
	for s := 0; s < scenes; s++ {
		for j := 0; j < avTrainPer; j++ {
			imgs = append(imgs, w.frames[s*avPerScene+j*avPerScene/avTrainPer])
			labels = append(labels, s)
		}
	}
	if w.clf, err = trainNN(newTinyNet(avNetworkSeed), imgs, labels, scenes); err != nil {
		return err
	}
	w.native = make([]uint32, len(w.frames))
	var wg sync.WaitGroup
	for part := 0; part < connections; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < len(w.frames); i += connections {
				l, _ := w.clf.Classify(w.frames[i])
				w.native[i] = uint32(l)
			}
		}(part)
	}
	wg.Wait()
	return nil
}

// seedOps is empty: the apps start against an empty cache, as on a
// phone, and the warm-up before the window lets the tuner activate.
func (w *appVision) seedOps() []*op { return nil }

// stream is the feed as the traced passes replay it: app conn's frames in
// order, each a lookup followed on a miss by a put of the native label.
func (w *appVision) stream(conn int) func() *op {
	pos := conn * avArcvOffset
	return func() *op {
		i := pos % len(w.frames)
		pos++
		label := w.native[i]
		return &op{kind: opLookup, keys: []Vector{w.ext.Extract(w.frames[i]).Key},
			value: labelValue(label, 4), cost: 8 * time.Millisecond, labels: []uint32{label}}
	}
}
