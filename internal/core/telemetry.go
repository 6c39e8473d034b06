package core

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/telemetry"
)

// Telemetry integration. The cache keeps its per-(function, key type)
// lookup counters and per-function put counters unconditionally — they
// replace the old global counters as the source of truth for Stats(),
// so the hot path performs the same number of atomic adds whether or
// not telemetry is attached. Attaching a *telemetry.Telemetry via
// Config.Telemetry adds, per lookup, a sampled latency-histogram
// observation (1-in-4: a monotonic clock read plus two atomic adds,
// amortized) and, on selected outcomes, a span (span.go); everything
// exported to the metric registry is func-backed (Counter.SetFunc /
// Gauge.SetFunc) reading the same atomics the cache already maintains,
// so scrapes never double the bookkeeping.

// ktCounters is the per-(function, key type) lookup outcome series.
// Unlike the legacy global counters, misses here EXCLUDE dropouts, so
// hits + misses + dropouts == lookups holds exactly per series;
// Stats() re-adds dropouts to preserve the historical "a dropout is
// also a miss" semantics of Stats.Misses.
type ktCounters struct {
	hits     atomic.Int64
	misses   atomic.Int64
	dropouts atomic.Int64
}

// fnCounters is the per-function write-path series. It is held by
// pointer on functionCache and carried across copy-on-write
// re-registration, so counts survive RegisterFunction calls.
type fnCounters struct {
	puts atomic.Int64
}

// since measures elapsed time from t (a lookup's start or a nowFast
// stage mark), using the monotonic fast path when the cache runs on the
// wall clock. time.Since reads only the monotonic counter; going
// through the clock interface would pay a dynamic dispatch plus a full
// wall+monotonic timestamp on every observed lookup.
func (c *Cache) since(t time.Time) time.Duration {
	if c.realClk {
		return time.Since(t)
	}
	return c.clk.Now().Sub(t)
}

// latSampleMask samples latency observations 1-in-4. An observation
// needs an end-of-lookup monotonic clock read (~35ns) plus a histogram
// update, which together would bust the subsystem's 5% overhead budget
// on a sub-microsecond lookup if paid every time; sampling on the
// outcome counter's post-increment value costs no extra atomics,
// samples hits and misses uniformly (quantiles stay unbiased), and
// keeps the histogram count an exact function of the series counters:
// count == hits/(mask+1) + misses/(mask+1), integer division.
const latSampleMask = 3

// telemetryVecs caches the metric families the cache registers, so
// RegisterFunction can mint per-(function, key type) series without
// re-resolving names.
type telemetryVecs struct {
	lookups    *telemetry.CounterVec
	latency    *telemetry.HistogramVec
	threshold  *telemetry.GaugeVec
	idxQueries *telemetry.CounterVec
	idxProbes  *telemetry.CounterVec
	puts       *telemetry.CounterVec
}

// initTelemetry registers the cache's metric families and global
// gauges with the attached registry. Called once from New; c is fully
// constructed except for functions (none registered yet).
func (c *Cache) initTelemetry() {
	r := c.tel.Registry
	c.vecs = &telemetryVecs{
		lookups: r.CounterVec("potluck_lookups_total",
			"Lookup outcomes by function, key type, and result (hit, miss, dropout).",
			"function", "keytype", "result"),
		latency: r.HistogramVec("potluck_lookup_latency_seconds",
			"End-to-end Lookup latency, sampled 1-in-4 (dropouts excluded).",
			"function", "keytype"),
		threshold: r.GaugeVec("potluck_tuner_threshold",
			"Live similarity threshold maintained by Algorithm 1.",
			"function", "keytype"),
		idxQueries: r.CounterVec("potluck_index_queries_total",
			"Nearest-neighbour queries answered by the key index.",
			"function", "keytype", "kind"),
		idxProbes: r.CounterVec("potluck_index_probes_total",
			"Entries examined by the key index answering queries.",
			"function", "keytype", "kind"),
		puts: r.CounterVec("potluck_puts_total",
			"Accepted cache insertions by function.",
			"function"),
	}
	r.Gauge("potluck_cache_entries", "Live cache entries.").
		SetFunc(func() float64 { return float64(c.count.Load()) })
	r.Gauge("potluck_cache_bytes", "Total size of live entries in bytes.").
		SetFunc(func() float64 { return float64(c.bytes.Load()) })
	r.Counter("potluck_evictions_total", "Entries evicted by the replacement policy.").
		SetFunc(c.ctr.evictions.Load)
	r.Counter("potluck_expirations_total", "Entries removed at TTL expiry.").
		SetFunc(c.ctr.expirations.Load)
	r.Counter("potluck_invalidations_total", "Entries removed by explicit invalidation.").
		SetFunc(c.ctr.invalidations.Load)
	r.Counter("potluck_rejected_puts_total", "Puts rejected by the reputation system.").
		SetFunc(c.ctr.rejectedPuts.Load)
	r.Gauge("potluck_saved_compute_seconds", "Total computation time hits saved applications.").
		SetFunc(func() float64 { return float64(c.ctr.savedCompute.Load()) / 1e9 })
}

// wireFunctionTelemetry mints the func-backed metric series for a
// function and its newly added key indices. ki.idx is assigned once at
// construction and never replaced, so reading its atomic probe
// counters from a scrape needs no lock.
func (c *Cache) wireFunctionTelemetry(fn string, stats *fnCounters, added []*keyIndex) {
	if c.tel == nil {
		return
	}
	c.vecs.puts.With(fn).SetFunc(stats.puts.Load)
	for _, ki := range added {
		ki := ki
		kt := ki.spec.Name
		c.vecs.lookups.With(fn, kt, "hit").SetFunc(ki.ctr.hits.Load)
		c.vecs.lookups.With(fn, kt, "miss").SetFunc(ki.ctr.misses.Load)
		c.vecs.lookups.With(fn, kt, "dropout").SetFunc(ki.ctr.dropouts.Load)
		c.vecs.threshold.With(fn, kt).SetFunc(ki.tuner.Threshold)
		kind := string(ki.spec.Index)
		c.vecs.idxQueries.With(fn, kt, kind).SetFunc(func() int64 { return ki.idx.ProbeStats().Queries })
		c.vecs.idxProbes.With(fn, kt, kind).SetFunc(func() int64 { return ki.idx.ProbeStats().Probes })
		ki.lat = c.vecs.latency.With(fn, kt)
	}
}

// KeyTypeStats is a point-in-time snapshot of one (function, key type)
// metric series.
type KeyTypeStats struct {
	KeyType   string           `json:"keyType"`
	IndexKind index.Kind       `json:"indexKind"`
	IndexLen  int              `json:"indexLen"`
	Hits      int64            `json:"hits"`
	Misses    int64            `json:"misses"` // excludes dropouts
	Dropouts  int64            `json:"dropouts"`
	Threshold float64          `json:"threshold"`
	Probes    index.ProbeStats `json:"probes"`
	// Latency summarizes the lookup-latency histogram (observations
	// sampled 1-in-4, see latSampleMask); nil when the cache runs
	// without telemetry attached.
	Latency *telemetry.LatencySummary `json:"latency,omitempty"`
}

// FunctionStats is a point-in-time snapshot of one function's metric
// series across its key types.
type FunctionStats struct {
	Function string         `json:"function"`
	Puts     int64          `json:"puts"`
	KeyTypes []KeyTypeStats `json:"keyTypes"`
}

// FunctionStats snapshots every registered function's per-key-type
// series, sorted by function name with key types in registration
// order. The per-series counts sum to the corresponding Stats()
// fields (Stats.Misses additionally folds dropouts in, preserving its
// historical semantics).
func (c *Cache) FunctionStats() []FunctionStats {
	c.funcsMu.RLock()
	fcs := make([]*functionCache, 0, len(c.funcs))
	for _, fc := range c.funcs {
		fcs = append(fcs, fc)
	}
	c.funcsMu.RUnlock()
	sort.Slice(fcs, func(i, j int) bool { return fcs[i].name < fcs[j].name })

	out := make([]FunctionStats, 0, len(fcs))
	for _, fc := range fcs {
		fs := FunctionStats{
			Function: fc.name,
			Puts:     fc.stats.puts.Load(),
			KeyTypes: make([]KeyTypeStats, 0, len(fc.kis)),
		}
		for i, ki := range fc.kis {
			ki.mu.RLock()
			n := ki.idx.Len()
			ki.mu.RUnlock()
			ks := KeyTypeStats{
				KeyType:   fc.order[i],
				IndexKind: ki.spec.Index,
				IndexLen:  n,
				Hits:      ki.ctr.hits.Load(),
				Misses:    ki.ctr.misses.Load(),
				Dropouts:  ki.ctr.dropouts.Load(),
				Threshold: ki.tuner.Threshold(),
				Probes:    ki.idx.ProbeStats(),
			}
			if ki.lat != nil {
				sum := ki.lat.Snapshot().Summary()
				ks.Latency = &sum
			}
			fs.KeyTypes = append(fs.KeyTypes, ks)
		}
		out = append(out, fs)
	}
	return out
}
