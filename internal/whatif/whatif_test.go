package whatif

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

func TestSampleHashSpatial(t *testing.T) {
	a := vec.Vector{1, 2, 3}
	b := vec.Vector{1, 2, 3}
	if sampleHash(a) != sampleHash(b) {
		t.Fatal("identical keys must hash identically")
	}
	if sampleHash(vec.Vector{1, 2, 3.0001}) == sampleHash(a) {
		t.Fatal("distinct keys should (overwhelmingly) hash differently")
	}
}

func TestSampleRate(t *testing.T) {
	p := New(Config{Rate: 0.25})
	rng := rand.New(rand.NewSource(7))
	sampled := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := vec.Vector{rng.Float64(), rng.Float64()}
		if sampleHash(k) <= p.sampleMax {
			sampled++
		}
	}
	got := float64(sampled) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("sample rate: got %.3f, want ≈0.25", got)
	}
}

func TestRingOrderAndOverflow(t *testing.T) {
	r := newRing(3) // 8 slots
	for i := 0; i < 8; i++ {
		if !r.push(event{id: uint64(i)}) {
			t.Fatalf("push %d rejected on non-full ring", i)
		}
	}
	if r.push(event{id: 99}) {
		t.Fatal("push accepted on full ring")
	}
	for i := 0; i < 8; i++ {
		ev, ok := r.pop()
		if !ok || ev.id != uint64(i) {
			t.Fatalf("pop %d: got (%v, %v)", i, ev.id, ok)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
	// The ring is reusable after a full lap.
	if !r.push(event{id: 42}) {
		t.Fatal("push rejected after drain")
	}
	if ev, ok := r.pop(); !ok || ev.id != 42 {
		t.Fatal("second-lap pop failed")
	}
}

func TestGhostCapacityAndPolicies(t *testing.T) {
	kt := ktKey{"fn", "feat"}
	mk := func(id uint64, costNs int64, at int64) *ghostEntry {
		// hash must be the key's identity (production uses sampleHash):
		// byHash enumerates the series, so colliding hashes shadow keys.
		return &ghostEntry{
			id:   id,
			Meta: core.Meta{Size: 1, Cost: time.Duration(costNs), AccessCount: 1, LastAccess: at, InsertedAt: at},
			keys: []ghostKey{{kt: kt, key: vec.Vector{float64(id)}, hash: sampleHash(vec.Vector{float64(id)})}},
		}
	}

	lru := newGhost(1, "lru", 2, 0, 1)
	lru.put(mk(1, 100, 10))
	lru.put(mk(2, 100, 20))
	lru.lookup(kt, vec.Vector{1}, 901, 0.1, 30) // touch 1 → 2 is now LRU
	lru.put(mk(3, 100, 40))
	if _, ok := lru.entries[2]; ok {
		t.Fatal("lru ghost should have evicted entry 2")
	}
	if _, ok := lru.entries[1]; !ok {
		t.Fatal("lru ghost evicted the recently-touched entry")
	}

	imp := newGhost(1, "importance", 2, 0, 1)
	imp.put(mk(1, 1000, 10)) // expensive → important
	imp.put(mk(2, 1, 20))    // cheap → first victim
	imp.put(mk(3, 500, 30))
	if _, ok := imp.entries[2]; ok {
		t.Fatal("importance ghost should have evicted the cheap entry")
	}

	// Capacity scaling: mult 2 × rate 0.5 leaves the bound unchanged.
	g := newGhost(2, "lru", 10, 0, 0.5)
	if g.capEntries != 10 {
		t.Fatalf("scaled capacity: got %d, want 10", g.capEntries)
	}
}

// TestGhostSteadyStateAllocFree: once a ghost is full, admit-on-miss and
// eviction recycle entries through the free list and the victim heap's
// array, so the profiler's consumer does not feed the GC.
func TestGhostSteadyStateAllocFree(t *testing.T) {
	for _, pol := range ghostPolicies {
		kt := ktKey{"fn", "feat"}
		g := newGhost(1, pol, 64, 0, 1)
		keys := make([]vec.Vector, 4096)
		for i := range keys {
			keys[i] = vec.Vector{float64(i), float64(i)}
		}
		i := 0
		step := func() {
			key := keys[i%len(keys)]
			g.lookup(kt, key, sampleHash(key), 0.1, int64(i))               // miss: admits, evicts at capacity
			g.lookup(kt, keys[(i+len(keys)-7)%len(keys)], 0, 0.1, int64(i)) // hit on a recent resident
			i++
		}
		for i < 3*len(keys) { // fill the ghost, the free list and the maps
			step()
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%s ghost: %.1f allocs per admit+hit at steady state, want 0", pol, allocs)
		}
		if g.evictions == 0 || g.hits == 0 || len(g.entries) != 64 || g.victims.Len() != 64 {
			t.Errorf("%s ghost: evictions %d hits %d entries %d heap %d", pol, g.evictions, g.hits, len(g.entries), g.victims.Len())
		}
	}
}

func TestGhostLookupThreshold(t *testing.T) {
	kt := ktKey{"fn", "feat"}
	g := newGhost(1, "lru", 10, 0, 1)
	g.put(&ghostEntry{
		id: 1, Meta: core.Meta{Size: 1, AccessCount: 1},
		keys: []ghostKey{{kt: kt, key: vec.Vector{0, 0}, hash: sampleHash(vec.Vector{0, 0})}},
	})
	g.lookup(kt, vec.Vector{0.5, 0}, 901, 1.0, 1)                 // dist 0.5 ≤ 1.0 → hit
	g.lookup(kt, vec.Vector{3, 0}, 902, 1.0, 2)                   // dist 3 > 1.0 → miss
	g.lookup(ktKey{"fn", "other"}, vec.Vector{0, 0}, 903, 1.0, 3) // wrong series → miss
	if g.hits != 1 || g.misses != 2 {
		t.Fatalf("ghost outcomes: hits=%d misses=%d, want 1/2", g.hits, g.misses)
	}
}

// TestGhostAdmitOnMissAndMerge: a miss admits a synthetic entry for the
// probe key (compute-on-miss), and a later put of the same content
// under a fresh real-cache id merges into one entry — carrying the
// access history over — instead of duplicating.
func TestGhostAdmitOnMissAndMerge(t *testing.T) {
	kt := ktKey{"fn", "feat"}
	g := newGhost(1, "lru", 10, 0, 1)
	key := vec.Vector{1, 2}
	g.lookup(kt, key, 77, 0.1, 1) // miss → synthetic admit under the key hash
	if len(g.entries) != 1 || g.entries[77] == nil {
		t.Fatalf("miss did not admit a synthetic entry: %d entries", len(g.entries))
	}
	g.lookup(kt, key, 77, 0.1, 2) // same key again → hit
	if g.hits != 1 || g.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", g.hits, g.misses)
	}
	g.put(&ghostEntry{
		id: 500, Meta: core.Meta{Size: 3, Cost: 9, AccessCount: 1, LastAccess: 3},
		keys: []ghostKey{{kt: kt, key: key, hash: 77}},
	})
	if len(g.entries) != 1 {
		t.Fatalf("put duplicated the key: %d entries", len(g.entries))
	}
	e := g.entries[500]
	if e == nil || e.AccessCount != 3 || e.Cost != 9 {
		t.Fatalf("merge lost counters: %+v", e)
	}
}

func TestSweepSeries(t *testing.T) {
	grid := []float64{0.5, 1, 2}
	s := newSweepSeries(len(grid))
	s.observe(grid, 0.4, 1.0) // ≤ all three
	s.observe(grid, 0.8, 1.0) // ≤ 1×, 2×
	s.observe(grid, 1.5, 1.0) // ≤ 2× only
	s.observe(grid, -1, 1.0)  // empty index
	if s.total != 4 || s.noNeighbor != 1 {
		t.Fatalf("total=%d noNeighbor=%d", s.total, s.noNeighbor)
	}
	want := []uint64{1, 2, 3}
	for i := range grid {
		if s.hits[i] != want[i] {
			t.Fatalf("hits[%d]=%d, want %d", i, s.hits[i], want[i])
		}
	}
}

// unboundedTap passes the cache's decision stream to the profiler and
// keeps the sweep an unbounded search would have fed it: a mirror k-d
// tree of every admitted key answers each lookup's nearest distance over
// the whole index.
type unboundedTap struct {
	*Profiler
	mirror *index.KDTree
	sweep  *sweepSeries
}

func (u *unboundedTap) TapLookup(fn, keyType string, key vec.Vector, dist, threshold float64, hit bool, nowNanos int64) {
	u.Profiler.TapLookup(fn, keyType, key, dist, threshold, hit, nowNanos)
	full := -1.0
	if n, ok := u.mirror.Nearest(key); ok {
		full = n.Dist
	}
	u.sweep.observe(u.Profiler.cfg.Grid, full, threshold)
}

func (u *unboundedTap) TapPut(fn string, keyTypes []string, keys []vec.Vector, id uint64, size int, costNanos, nowNanos int64) {
	u.Profiler.TapPut(fn, keyTypes, keys, id, size, costNanos, nowNanos)
	u.mirror.Insert(index.ID(id), keys[0])
}

// TestSweepExactUpToSearchRadius: the cache's lookup searches only within
// core.SearchRadius·T, and on a seeded stream (no eviction, so the mirror
// holds what the cache holds) the profiler's sweep counts at every point
// of the default grid, up to its largest multiple, equal those of the
// unbounded search. Only noNeighbor grows: it now counts the lookups with
// nothing within 4·T.
func TestSweepExactUpToSearchRadius(t *testing.T) {
	grid := []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	p := New(Config{Rate: 1, Capacity: 1000, Grid: grid})
	tap := &unboundedTap{Profiler: p, mirror: index.NewKDTree(vec.EuclideanMetric{}), sweep: newSweepSeries(len(grid))}
	// Every value is distinct and no lookup drops out, so every put
	// follows a miss beyond the threshold with a different value: the
	// threshold stays at 1 while the nearest distances spread across the
	// grid.
	c := core.New(core.Config{Seed: 1, DisableDropout: true, Tap: tap})
	if err := c.RegisterFunction("fn", core.KeyTypeSpec{Name: "feat", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("fn", "feat", 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		if i%500 == 0 {
			p.Drain()
		}
		// Forty clusters 100 apart, points around them at sigmas from
		// 0.5 to 8; a key from a cluster not yet stored has nothing
		// within 4·T.
		cl := rng.Intn(40)
		sigma := 0.5 * float64(int(1)<<(cl%5))
		key := vec.Vector{float64(cl%8)*100 + rng.NormFloat64()*sigma, float64(cl/8)*100 + rng.NormFloat64()*sigma}
		res, err := c.Lookup("fn", "feat", key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit {
			if _, err := c.Put("fn", core.PutRequest{Keys: map[string]vec.Vector{"feat": key}, Value: i, Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Drain()
	curves := p.Snapshot().ThresholdSweeps
	if len(curves) != 1 {
		t.Fatalf("sweeps: %+v", curves)
	}
	defaultGrid := New(Config{}).cfg.Grid
	exactUpTo := defaultGrid[len(defaultGrid)-1]
	got, want := curves[0], tap.sweep
	if got.Total != want.total || got.NoNeighbor <= want.noNeighbor {
		t.Errorf("total %d, noNeighbor %d; unbounded total %d, noNeighbor %d: want equal totals and more lookups with no neighbour within 4·T",
			got.Total, got.NoNeighbor, want.total, want.noNeighbor)
	}
	for i, pt := range got.Points {
		switch {
		case pt.Mult <= exactUpTo && pt.Hits != want.hits[i]:
			t.Errorf("%g×: %d hits, unbounded %d", pt.Mult, pt.Hits, want.hits[i])
		case pt.Mult > exactUpTo && pt.Hits > want.hits[i]:
			t.Errorf("%g×: %d hits, more than the unbounded %d", pt.Mult, pt.Hits, want.hits[i])
		}
	}
	t.Logf("total %d, noNeighbor %d (unbounded %d), 8×: %d hits (unbounded %d)",
		got.Total, got.NoNeighbor, want.noNeighbor, got.Points[len(grid)-1].Hits, want.hits[len(grid)-1])
}

func TestSolveCharTime(t *testing.T) {
	// Equal rates: M·(1−e^(−λT)) = C ⇒ T = −ln(1−C/M)/λ.
	rates := make([]float64, 10)
	for i := range rates {
		rates[i] = 2.0
	}
	got := solveCharTime(rates, 4)
	want := -math.Log(1-4.0/10.0) / 2.0
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("charTime: got %v, want %v", got, want)
	}
	if !math.IsInf(solveCharTime(rates, 10), 1) {
		t.Fatal("catalog ≤ capacity must give infinite characteristic time")
	}
	if solveCharTime(nil, 4) != 0 {
		t.Fatal("empty catalog must give zero characteristic time")
	}
}

// TestPredictorAgainstSimulation drives an exact-match LRU workload
// (threshold 0 balls degenerate to single contents, the classical Che
// setting) and checks the estimator against the measured stream.
func TestPredictorAgainstSimulation(t *testing.T) {
	p := New(Config{Rate: 1, Capacity: 20, Multiples: []float64{1}})
	kt := ktKey{"fn", "feat"}
	rng := rand.New(rand.NewSource(3))
	const universe = 60

	// The ghost at 1× doubles as the LRU simulator producing the
	// measured stream: feed lookups and refill misses, like a client.
	g := p.ghosts[0] // 1× lru
	var hits, total int
	for i := 0; i < 30000; i++ {
		// Zipf-ish skew via squaring.
		u := rng.Float64()
		id := int(u * u * universe)
		key := vec.Vector{float64(id), 0}
		before := g.hits
		g.lookup(kt, key, sampleHash(key), 0.001, int64(i)*1e6)
		hit := g.hits > before
		if i >= 5000 { // warm measurement window
			total++
			if hit {
				hits++
			}
			pr := p.preds[kt]
			if pr == nil {
				pr = newPredictSeries()
				p.preds[kt] = pr
			}
			pr.observe(sampleHash(key), key, 0.001, hit, int64(i)*1e6, p.cfg.MaxContents)
		}
		if !hit {
			g.put(&ghostEntry{
				id: uint64(id), Meta: core.Meta{Size: 1, AccessCount: 1, LastAccess: int64(i) * 1e6},
				keys: []ghostKey{{kt: kt, key: key, hash: sampleHash(key)}},
			})
		}
	}
	measured := float64(hits) / float64(total)
	pr := p.preds[kt]
	tm := solveCharTime(pr.rates(), 20)
	predicted := pr.predict(tm, pr.meanThreshold(), pr.elapsedSeconds())
	if math.Abs(predicted-measured) > 0.08 {
		t.Fatalf("Che estimate %0.3f vs simulated %0.3f: divergence too large", predicted, measured)
	}
}

// TestProfilerEndToEnd attaches the profiler to a real cache at rate 1
// and checks that the 1× ghost tracks the real hit rate, the sweep's
// 1× point matches the measured rate, and the report is coherent.
func TestProfilerEndToEnd(t *testing.T) {
	tel := telemetry.New()
	p := New(Config{Rate: 1, Capacity: 50, Tolerance: 0.2, Telemetry: tel})
	c := core.New(core.Config{
		MaxEntries:     50,
		DisableDropout: true,
		Policy:         core.PolicyLRU,
		Seed:           1,
		Tuner:          core.TunerConfig{WarmupZ: 1},
		Tap:            p,
	})
	if err := c.RegisterFunction("fn", core.KeyTypeSpec{Name: "feat"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("fn", "feat", 0.25); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var hits, lookups int
	for i := 0; i < 8000; i++ {
		if i%500 == 0 {
			p.Drain() // lazy consumer: keep the ring from overflowing
		}
		id := rng.Intn(120)
		key := vec.Vector{float64(id), float64(id % 5)}
		res, err := c.Lookup("fn", "feat", key)
		if err != nil {
			t.Fatal(err)
		}
		lookups++
		if res.Hit {
			hits++
		} else {
			if _, err := c.Put("fn", core.PutRequest{
				Keys:  map[string]vec.Vector{"feat": key},
				Value: fmt.Sprintf("v%d", id),
				Size:  64,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	measuredRate := float64(hits) / float64(lookups)
	r := p.Snapshot()
	if r.SampledLookups != uint64(lookups) {
		t.Fatalf("rate-1 profiler sampled %d of %d lookups", r.SampledLookups, lookups)
	}
	var oneX *MRCPoint
	for i := range r.MissRatioCurve {
		pt := &r.MissRatioCurve[i]
		if pt.Mult == 1 && pt.Policy == "lru" {
			oneX = pt
		}
	}
	if oneX == nil {
		t.Fatal("no 1×/lru ghost in the miss-ratio curve")
	}
	if math.Abs(oneX.HitRate-measuredRate) > 0.03 {
		t.Fatalf("1× ghost hit rate %.3f vs real %.3f: self-check failed", oneX.HitRate, measuredRate)
	}
	// MRC monotone in capacity for a fixed policy.
	byMult := map[float64]float64{}
	for _, pt := range r.MissRatioCurve {
		if pt.Policy == "lru" {
			byMult[pt.Mult] = pt.HitRate
		}
	}
	if !(byMult[0.25] <= byMult[1]+0.02 && byMult[1] <= byMult[4]+0.02) {
		t.Fatalf("miss-ratio curve not monotone: %v", byMult)
	}
	// Sweep: the 1× point must equal the measured rate (same probes,
	// same thresholds), and hit rate must be monotone in the grid.
	if len(r.ThresholdSweeps) != 1 {
		t.Fatalf("sweep series: got %d, want 1", len(r.ThresholdSweeps))
	}
	sw := r.ThresholdSweeps[0]
	var prev float64
	for _, pt := range sw.Points {
		if pt.HitRate+1e-9 < prev {
			t.Fatalf("sweep not monotone at mult %v", pt.Mult)
		}
		prev = pt.HitRate
		if pt.Mult == 1 && math.Abs(pt.HitRate-measuredRate) > 1e-9 {
			t.Fatalf("sweep 1× point %.4f vs measured %.4f", pt.HitRate, measuredRate)
		}
	}
	if len(r.Predictions) != 1 {
		t.Fatalf("predictions: got %d, want 1", len(r.Predictions))
	}
	pd := r.Predictions[0]
	if math.Abs(pd.Measured-measuredRate) > 1e-9 {
		t.Fatalf("prediction measured side %.4f vs real %.4f", pd.Measured, measuredRate)
	}
	if pd.Divergence > 0.2 {
		t.Fatalf("predicted %.3f diverges from measured %.3f beyond tolerance", pd.Predicted, pd.Measured)
	}
}

// TestProfilerConcurrent exercises the tap, the drain loop, and
// Snapshot from many goroutines under -race.
func TestProfilerConcurrent(t *testing.T) {
	p := New(Config{Rate: 1, Capacity: 32, RingBits: 8})
	p.Start()
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := vec.Vector{float64(i % 97), float64(w)}
				p.TapLookup("fn", "feat", key, 0.5, 1.0, i%3 == 0, int64(i))
				if i%5 == 0 {
					p.TapPut("fn", []string{"feat"}, []vec.Vector{key.Clone()},
						uint64(w*10000+i), 8, 1000, int64(i))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = p.Snapshot()
		}
	}()
	wg.Wait()
	p.Close()
	r := p.Snapshot()
	if r.SampledLookups+r.RingDrops < 8000 {
		t.Fatalf("accounting: sampled %d + dropped %d < 8000", r.SampledLookups, r.RingDrops)
	}
}
