// Package whatif is the online counterfactual profiler: it taps the
// cache's decision stream (core.Tap) under SHARDS-style spatially-
// hashed sampling and continuously answers "what would a bigger cache,
// a different eviction policy, or a looser threshold buy?" without
// running one.
//
// Three consumers share the sampled stream:
//
//   - Ghost caches — metadata-only shadow simulations at configurable
//     capacity multiples and eviction policies (LRU vs importance),
//     yielding an online miss-ratio curve (Waldspurger et al.'s SHARDS
//     construction: simulate a cache scaled by the sample rate against
//     the sampled trace; hit ratios transfer unscaled).
//   - A threshold sweep — each sampled probe's nearest-neighbour
//     distance, already computed on the real lookup path, is replayed
//     against a grid of threshold multipliers per (function, keyType).
//   - A predicted-vs-measured check — the Che-approximation similarity-
//     cache estimator of Ben Mazziane et al. (PAPERS.md) computed over
//     the sampled catalog, compared against the measured sampled hit
//     rate; divergence beyond tolerance raises a gauge and flags the
//     report row, turning the model into a continuously-checked
//     invariant.
//
// Sampling is spatial: a key is sampled iff hash(key) falls under
// rate·2⁶⁴, so every request for the same key lands on the same side
// of the cut and reuse structure survives sampling. (Near-identical —
// not identical — keys hash independently, so at rates < 1 similarity
// hits across the cut are approximated; the validation experiment runs
// at rate 1 where the simulation is exact.)
//
// The hot-path cost is one hash plus, for sampled events, a clone and
// a channel-free ring push; all simulation runs on the consumer side.
package whatif

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Defaults; see Config.
const (
	// DefaultRate is 1 in 64 (~1.6%), chosen for always-on production
	// use: it is still above the R=0.01 operating point SHARDS
	// validates to sub-point miss-ratio error, and it keeps the
	// consumer's simulation work a low single-digit share of one core
	// so attaching stays inside the telemetry budget even on
	// single-CPU hosts. Pass -whatif-rate for finer resolution.
	DefaultRate        = 0.015625 // 1 in 64
	DefaultTolerance   = 0.15
	DefaultRingBits    = 13 // 8192 in-flight events
	DefaultMaxContents = 2048
	// maxSeries bounds the (function, keyType) pairs the profiler
	// tracks, mirroring the metric registry's cardinality bound.
	maxSeries = 256
	// minSamples is the floor under which a series' predicted-vs-
	// measured divergence is reported but not flagged: comparing a
	// steady-state model against a handful of samples is noise.
	minSamples = 50
	// snapshotTTL caches the computed report; scrape loops and the
	// func-backed gauges share one computation per window.
	snapshotTTL = time.Second
)

// Config parameterizes a Profiler. The zero value of every field takes
// the documented default.
type Config struct {
	// Rate is the spatial sample rate in (0, 1]; default DefaultRate.
	Rate float64
	// Capacity and CapacityBytes mirror the real cache's MaxEntries /
	// MaxBytes; ghost capacities are these scaled by multiple × rate.
	// Both zero disables the ghost caches (an unbounded cache has no
	// meaningful miss-ratio curve) and the Che predictor (whose
	// characteristic time is defined by a finite capacity).
	Capacity      int
	CapacityBytes int64
	// Multiples are the ghost capacity multiples; default ¼×, ½×, 1×,
	// 2×, 4× (1× is the self-check against the real cache).
	Multiples []float64
	// Grid is the threshold-sweep multiplier grid; default 0, ¼, ½, ¾,
	// 1, 1½, 2, 3, 4 (0 = exact-match-only, 1 = the live threshold).
	// Points above core.SearchRadius (4) are lower bounds: the cache
	// searches no farther.
	Grid []float64
	// Tolerance is the predicted-vs-measured divergence beyond which
	// the profiler flags a series; default DefaultTolerance.
	Tolerance float64
	// RingBits sizes the event ring at 2^RingBits; default
	// DefaultRingBits.
	RingBits uint
	// MaxContents bounds the predictor's per-series catalog; default
	// DefaultMaxContents.
	MaxContents int
	// Telemetry, when non-nil, receives the profiler's metric series
	// (potluck_whatif_*).
	Telemetry *telemetry.Telemetry
}

// Ghost set: every capacity multiple is shadowed under LRU — the
// cache's actual eviction regime, so the capacity axis of the
// miss-ratio curve answers "what if this cache were bigger/smaller" —
// and the importance policy is shadowed at 1× only, answering "what
// would the other policy do at the capacity I actually have". The full
// cross product would double the consumer's simulation work for
// points that conflate two counterfactuals at once.
var ghostPolicies = []core.PolicyKind{core.PolicyLRU, core.PolicyImportance}

func (cfg Config) normalized() Config {
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		cfg.Rate = DefaultRate
	}
	if len(cfg.Multiples) == 0 {
		cfg.Multiples = []float64{0.25, 0.5, 1, 2, 4}
	}
	if len(cfg.Grid) == 0 {
		cfg.Grid = []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4}
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = DefaultTolerance
	}
	if cfg.RingBits == 0 || cfg.RingBits > 20 {
		cfg.RingBits = DefaultRingBits
	}
	if cfg.MaxContents <= 0 {
		cfg.MaxContents = DefaultMaxContents
	}
	if cfg.Capacity < 0 {
		cfg.Capacity = 0
	}
	if cfg.CapacityBytes < 0 {
		cfg.CapacityBytes = 0
	}
	return cfg
}

// Profiler implements core.Tap. Producers (lookup/put goroutines) pay
// one hash and an occasional lock-free ring push; a single consumer —
// the Start worker, or any caller of Drain/Snapshot — owns the ghosts,
// sweeps, and catalogs behind consumeMu.
type Profiler struct {
	cfg       Config
	sampleMax uint64 // inclusive hash bound: sampled iff hash ≤ sampleMax
	scale     float64

	ring           *ring
	sampledLookups atomic.Uint64
	sampledPuts    atomic.Uint64
	drops          atomic.Uint64

	consumeMu      sync.Mutex
	ghosts         []*ghost
	sweeps         map[ktKey]*sweepSeries
	preds          map[ktKey]*predictSeries
	seriesOverflow uint64 // events beyond the maxSeries bound

	snapMu sync.Mutex
	snap   *Report
	snapAt time.Time

	startMu sync.Mutex
	done    chan struct{}
	wg      sync.WaitGroup
}

// New builds a profiler. Metric series are registered immediately when
// cfg.Telemetry is set; the tap is live as soon as it is attached to a
// cache, with or without Start.
func New(cfg Config) *Profiler {
	cfg = cfg.normalized()
	p := &Profiler{
		cfg:    cfg,
		scale:  1 / cfg.Rate,
		ring:   newRing(cfg.RingBits),
		sweeps: make(map[ktKey]*sweepSeries),
		preds:  make(map[ktKey]*predictSeries),
	}
	if cfg.Rate >= 1 {
		p.sampleMax = math.MaxUint64
	} else {
		p.sampleMax = uint64(cfg.Rate * float64(1<<63) * 2)
	}
	if cfg.Capacity > 0 || cfg.CapacityBytes > 0 {
		for _, mult := range cfg.Multiples {
			if mult <= 0 {
				continue
			}
			for _, pol := range ghostPolicies {
				if pol != core.PolicyLRU && mult != 1 {
					continue
				}
				p.ghosts = append(p.ghosts,
					newGhost(mult, pol, cfg.Capacity, cfg.CapacityBytes, cfg.Rate))
			}
		}
	}
	if cfg.Telemetry != nil {
		p.registerMetrics(cfg.Telemetry.Registry)
	}
	return p
}

// registerMetrics exposes the profiler on the registry. Counters mirror
// the producer-side atomics; per-ghost hit rates and the divergence
// gauge read the TTL-cached snapshot, so a scrape costs at most one
// report computation per snapshotTTL.
func (p *Profiler) registerMetrics(reg *telemetry.Registry) {
	reg.Counter("potluck_whatif_sampled_lookups_total",
		"Lookups sampled into the what-if profiler.").
		SetFunc(func() int64 { return int64(p.sampledLookups.Load()) })
	reg.Counter("potluck_whatif_sampled_puts_total",
		"Puts sampled into the what-if profiler.").
		SetFunc(func() int64 { return int64(p.sampledPuts.Load()) })
	reg.Counter("potluck_whatif_dropped_total",
		"Sampled events dropped because the profiler ring was full.").
		SetFunc(func() int64 { return int64(p.drops.Load()) })
	reg.Gauge("potluck_whatif_divergence",
		"Largest predicted-vs-measured hit-rate divergence across series.").
		SetFunc(func() float64 { return p.Snapshot().MaxDivergence })
	ghostRate := reg.GaugeVec("potluck_whatif_ghost_hit_rate",
		"Shadow-cache hit rate at each capacity multiple and policy.",
		"mult", "policy")
	for i, g := range p.ghosts {
		i := i
		ghostRate.With(strconv.FormatFloat(g.mult, 'g', -1, 64), string(g.policy.Name())).
			SetFunc(func() float64 {
				r := p.Snapshot()
				if i < len(r.MissRatioCurve) {
					return r.MissRatioCurve[i].HitRate
				}
				return 0
			})
	}
}

// sampleHash is the spatial sampling hash: a splitmix-style mix of the
// key's float bits. Identical key vectors — the unit of reuse — always
// agree; the low cost (one xor-mul round per dimension) is what keeps
// the attached hot-path overhead inside the telemetry budget.
func sampleHash(key vec.Vector) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, f := range key {
		h ^= math.Float64bits(f)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// TapLookup implements core.Tap: called on every non-dropout lookup
// with the probe key, the real path's NN distance, and the live
// threshold. The key is cloned before entering the ring because the
// caller owns it.
func (p *Profiler) TapLookup(fn, keyType string, key vec.Vector, dist, threshold float64, hit bool, nowNanos int64) {
	h := sampleHash(key)
	if h > p.sampleMax {
		return
	}
	ev := event{
		kind: evLookup, fn: fn, keyType: keyType, key: key.Clone(),
		dist: dist, thresh: threshold, hit: hit,
		id: h, atNanos: nowNanos, // id doubles as the catalog key hash
	}
	if p.ring.push(ev) {
		p.sampledLookups.Add(1)
	} else {
		p.drops.Add(1)
	}
}

// TapPut implements core.Tap: called on every successful admission.
// The entry is sampled iff any of its keys is, so entries reachable by
// sampled lookups exist in the ghosts. Slices are owned by the callee
// per the Tap contract; the key vectors are the same read-only backing
// arrays the cache itself retains.
func (p *Profiler) TapPut(fn string, keyTypes []string, keys []vec.Vector, id uint64, size int, costNanos, nowNanos int64) {
	sampled := false
	for _, k := range keys {
		if sampleHash(k) <= p.sampleMax {
			sampled = true
			break
		}
	}
	if !sampled {
		return
	}
	// The slices are borrowed from the caller's pool (Tap contract);
	// copy before the event outlives this call. The key vectors inside
	// are the cache's read-only arrays and are shared as-is. Sampled
	// puts are rare (rate · put share), so the copies are off the
	// common path.
	ev := event{
		kind: evPut, fn: fn,
		keyTypes: append([]string(nil), keyTypes...),
		keys:     append([]vec.Vector(nil), keys...),
		id:       id, size: size, costNs: costNanos, atNanos: nowNanos,
	}
	if p.ring.push(ev) {
		p.sampledPuts.Add(1)
	} else {
		p.drops.Add(1)
	}
}

// Start launches the background consumer. Without it the ring drains
// lazily on Snapshot/Drain, which suits tests and experiments; a
// daemon starts the worker so the ring cannot back up between scrapes.
func (p *Profiler) Start() {
	p.startMu.Lock()
	defer p.startMu.Unlock()
	if p.done != nil {
		return
	}
	p.done = make(chan struct{})
	p.wg.Add(1)
	go p.loop(p.done)
}

func (p *Profiler) loop(done chan struct{}) {
	defer p.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if p.Drain() == 0 {
			select {
			case <-done:
				return
			case <-tick.C:
			}
		} else {
			select {
			case <-done:
				return
			default:
			}
		}
	}
}

// Close stops the background consumer (if started) after a final
// drain. The tap stays safe to call — events simply accumulate in the
// ring — so Close does not need to be ordered against cache shutdown.
func (p *Profiler) Close() {
	p.startMu.Lock()
	defer p.startMu.Unlock()
	if p.done == nil {
		return
	}
	close(p.done)
	p.wg.Wait()
	p.done = nil
	p.Drain()
	// Invalidate the cached report so the next Snapshot reflects the
	// final drain rather than a mid-run computation.
	p.snapMu.Lock()
	p.snap = nil
	p.snapMu.Unlock()
}

// Drain consumes every pending ring event into the ghosts, sweeps, and
// catalogs, returning how many it processed.
func (p *Profiler) Drain() int {
	p.consumeMu.Lock()
	defer p.consumeMu.Unlock()
	return p.drainLocked()
}

func (p *Profiler) drainLocked() int {
	n := 0
	for {
		ev, ok := p.ring.pop()
		if !ok {
			return n
		}
		p.apply(ev)
		n++
	}
}

// apply folds one sampled event into every consumer.
func (p *Profiler) apply(ev event) {
	switch ev.kind {
	case evLookup:
		kt := ktKey{ev.fn, ev.keyType}
		for _, g := range p.ghosts {
			g.lookup(kt, ev.key, ev.id, ev.thresh, ev.atNanos)
		}
		sw := p.sweeps[kt]
		if sw == nil {
			if len(p.sweeps) >= maxSeries {
				p.seriesOverflow++
				return
			}
			sw = newSweepSeries(len(p.cfg.Grid))
			p.sweeps[kt] = sw
		}
		sw.observe(p.cfg.Grid, ev.dist, ev.thresh)
		pr := p.preds[kt]
		if pr == nil {
			pr = newPredictSeries()
			p.preds[kt] = pr
		}
		pr.observe(ev.id, ev.key, ev.thresh, ev.hit, ev.atNanos, p.cfg.MaxContents)
	case evPut:
		var kbuf [4]ghostKey
		gks := kbuf[:0]
		if len(ev.keys) > len(kbuf) {
			gks = make([]ghostKey, 0, len(ev.keys))
		}
		for i := range ev.keys {
			gks = append(gks, ghostKey{kt: ktKey{ev.fn, ev.keyTypes[i]}, key: ev.keys[i], hash: sampleHash(ev.keys[i])})
		}
		for _, g := range p.ghosts {
			// Each ghost owns its entry (counters and pooled lifetime);
			// the key vectors are shared read-only.
			e := g.alloc()
			e.id, e.Size, e.Cost = ev.id, ev.size, time.Duration(ev.costNs)
			e.AccessCount, e.LastAccess, e.InsertedAt = 1, ev.atNanos, ev.atNanos
			e.keys = append(e.keys, gks...)
			g.put(e)
		}
	}
}
