package whatif

import (
	"math"
	"sort"
	"time"
)

// Report is the /whatif payload: every counterfactual curve plus the
// sample-coverage numbers needed to judge how much to trust them.
type Report struct {
	Rate  float64 `json:"rate"`
	Scale float64 `json:"scale"` // 1/rate: multiply sampled counts to estimate totals

	SampledLookups uint64 `json:"sampledLookups"`
	SampledPuts    uint64 `json:"sampledPuts"`
	RingDrops      uint64 `json:"ringDrops"`
	SeriesOverflow uint64 `json:"seriesOverflow,omitempty"`

	CapacityEntries int   `json:"capacityEntries,omitempty"`
	CapacityBytes   int64 `json:"capacityBytes,omitempty"`
	// GhostsDisabled is set when the cache has no capacity bound: an
	// unbounded cache has no miss-ratio curve and no Che characteristic
	// time, so only the threshold sweeps are live.
	GhostsDisabled bool `json:"ghostsDisabled,omitempty"`

	MissRatioCurve  []MRCPoint   `json:"missRatioCurve"`
	ThresholdSweeps []SweepCurve `json:"thresholdSweeps"`
	Predictions     []Prediction `json:"predictions"`

	MaxDivergence float64 `json:"maxDivergence"`
	Tolerance     float64 `json:"tolerance"`
}

// MRCPoint is one ghost cache's outcome: the estimated hit/miss ratio
// the real cache would see at CapMult × its capacity under Policy.
type MRCPoint struct {
	Mult       float64 `json:"mult"`
	Policy     string  `json:"policy"`
	CapEntries int     `json:"capEntries,omitempty"`
	CapBytes   int64   `json:"capBytes,omitempty"`
	Entries    int     `json:"entries"` // current ghost population
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Evictions  uint64  `json:"evictions"`
	HitRate    float64 `json:"hitRate"`
	MissRatio  float64 `json:"missRatio"`
}

// SweepCurve is one (function, keyType)'s hit rate as a function of
// the threshold multiplier.
type SweepCurve struct {
	Function   string       `json:"function"`
	KeyType    string       `json:"keyType"`
	Total      uint64       `json:"total"`
	NoNeighbor uint64       `json:"noNeighbor"`
	Points     []SweepPoint `json:"points"`
}

// SweepPoint is one grid entry: the hit rate had the threshold been
// Mult × its live value.
type SweepPoint struct {
	Mult    float64 `json:"mult"`
	Hits    uint64  `json:"hits"`
	HitRate float64 `json:"hitRate"`
}

// Prediction is one (function, keyType)'s Che-approximation estimate
// against its measured sampled hit rate.
type Prediction struct {
	Function string `json:"function"`
	KeyType  string `json:"keyType"`
	// Contents is the catalog size; Uncovered counts sampled requests
	// to keys beyond the catalog bound (coverage warning when nonzero).
	Contents  int    `json:"contents"`
	Uncovered uint64 `json:"uncovered,omitempty"`
	Samples   uint64 `json:"samples"`
	// MeanThreshold is the running mean live threshold (the θ of the
	// similarity ball).
	MeanThreshold float64 `json:"meanThreshold"`
	// CharTimeSeconds is the Che characteristic time; -1 encodes +Inf
	// (the catalog fits the cache, nothing is ever evicted).
	CharTimeSeconds float64 `json:"charTimeSeconds"`
	Predicted       float64 `json:"predicted"`
	Measured        float64 `json:"measured"`
	Divergence      float64 `json:"divergence"`
	// Diverged is set when Divergence exceeds tolerance with at least
	// minSamples samples behind it.
	Diverged bool `json:"diverged,omitempty"`
}

// Snapshot returns the current report, recomputing at most once per
// snapshotTTL (scrape loops, the divergence gauge, and the per-ghost
// gauges share one computation). Pending ring events are drained
// first, so a snapshot with no background worker is still current.
func (p *Profiler) Snapshot() Report {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.snap != nil && time.Since(p.snapAt) < snapshotTTL {
		return *p.snap
	}
	r := p.compute()
	p.snap, p.snapAt = &r, time.Now()
	return r
}

// compute builds the report under the consumer lock.
func (p *Profiler) compute() Report {
	p.consumeMu.Lock()
	defer p.consumeMu.Unlock()
	p.drainLocked()

	r := Report{
		Rate:            p.cfg.Rate,
		Scale:           p.scale,
		SampledLookups:  p.sampledLookups.Load(),
		SampledPuts:     p.sampledPuts.Load(),
		RingDrops:       p.drops.Load(),
		SeriesOverflow:  p.seriesOverflow,
		CapacityEntries: p.cfg.Capacity,
		CapacityBytes:   p.cfg.CapacityBytes,
		GhostsDisabled:  len(p.ghosts) == 0,
		Tolerance:       p.cfg.Tolerance,
	}

	// Miss-ratio curve, in ghost registration order (the func-backed
	// gauges index this slice by the same order).
	for _, g := range p.ghosts {
		hr := g.hitRate()
		r.MissRatioCurve = append(r.MissRatioCurve, MRCPoint{
			Mult: g.mult, Policy: string(g.policy.Name()),
			CapEntries: g.capEntries, CapBytes: g.capBytes,
			Entries: len(g.entries),
			Hits:    g.hits, Misses: g.misses, Evictions: g.evictions,
			HitRate: hr, MissRatio: 1 - hr,
		})
	}

	// Threshold sweeps, sorted for stable output.
	for kt, sw := range p.sweeps {
		c := SweepCurve{
			Function: kt.fn, KeyType: kt.kt,
			Total: sw.total, NoNeighbor: sw.noNeighbor,
		}
		for i, m := range p.cfg.Grid {
			var hr float64
			if sw.total > 0 {
				hr = float64(sw.hits[i]) / float64(sw.total)
			}
			c.Points = append(c.Points, SweepPoint{Mult: m, Hits: sw.hits[i], HitRate: hr})
		}
		r.ThresholdSweeps = append(r.ThresholdSweeps, c)
	}
	sort.Slice(r.ThresholdSweeps, func(i, j int) bool {
		a, b := r.ThresholdSweeps[i], r.ThresholdSweeps[j]
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		return a.KeyType < b.KeyType
	})

	// Predicted vs measured. The characteristic time is cache-wide —
	// one LRU order spans every series — so T solves the occupancy
	// equation over the union of all catalogs, then each series is
	// evaluated within its own similarity ball.
	if p.cfg.Capacity > 0 {
		var allRates []float64
		for _, pr := range p.preds {
			allRates = append(allRates, pr.rates()...)
		}
		capModel := float64(p.cfg.Capacity) * p.cfg.Rate
		t := solveCharTime(allRates, capModel)
		for kt, pr := range p.preds {
			if pr.sampledLookups == 0 {
				continue
			}
			theta := pr.meanThreshold()
			pred := pr.predict(t, theta, pr.elapsedSeconds())
			meas := pr.measured()
			div := math.Abs(pred - meas)
			row := Prediction{
				Function: kt.fn, KeyType: kt.kt,
				Contents: len(pr.contents), Uncovered: pr.uncovered,
				Samples:       pr.sampledLookups,
				MeanThreshold: theta,
				Predicted:     pred, Measured: meas, Divergence: div,
				CharTimeSeconds: t,
			}
			if math.IsInf(t, 1) {
				row.CharTimeSeconds = -1
			}
			if pr.sampledLookups >= minSamples {
				row.Diverged = div > p.cfg.Tolerance
				if div > r.MaxDivergence {
					r.MaxDivergence = div
				}
			}
			r.Predictions = append(r.Predictions, row)
		}
		sort.Slice(r.Predictions, func(i, j int) bool {
			a, b := r.Predictions[i], r.Predictions[j]
			if a.Function != b.Function {
				return a.Function < b.Function
			}
			return a.KeyType < b.KeyType
		})
	}
	return r
}
