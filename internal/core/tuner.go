package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// TunerConfig parameterizes the NN-based threshold tuning algorithm
// (Algorithm 1 of the paper). The zero value is replaced by the paper's
// defaults: k = 4, γ = 0.8, z = 100.
type TunerConfig struct {
	// K is the tightening divisor: a false positive sets θ ← θ/K.
	// The paper evaluates K ∈ {2, 4, 8} in Figure 7 and defaults to 4.
	K float64
	// Gamma is the EWMA weight for loosening:
	// θ ← (1-γ)·‖key′-key‖ + γ·θ. Default 0.8.
	Gamma float64
	// WarmupZ is the number of entries that must be inserted before the
	// algorithm "kicks into action" (default 100). Figure 6 studies the
	// effect of this value on threshold accuracy.
	WarmupZ int
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.K <= 0 {
		c.K = 4
	}
	if c.Gamma <= 0 || c.Gamma >= 1 {
		c.Gamma = 0.8
	}
	if c.WarmupZ <= 0 {
		c.WarmupZ = 100
	}
	return c
}

// Tuner maintains the similarity threshold for one key index,
// implementing Algorithm 1: the threshold starts at zero (exact match
// only), is initialized once WarmupZ entries have been cached, is
// loosened conservatively by an exponentially weighted moving average
// when a distant neighbour turns out to share the new entry's value, and
// is tightened aggressively (θ/K) when a neighbour within the threshold
// turns out to have a different value — a condition surfaced by the
// random-dropout mechanism (§3.4).
//
// The tuner's own mutex is its sole synchronization: it is a leaf in
// the cache's lock hierarchy, always called with no cache lock held, so
// tuner updates never serialize lookups or puts on other key types.
// The current threshold is additionally mirrored in an atomic so that
// Threshold() — called on every cache lookup — is a single atomic load
// rather than a lock acquisition.
type Tuner struct {
	mu        sync.Mutex
	cfg       TunerConfig
	threshold float64       // guarded by mu (read-modify-write)
	thr       atomic.Uint64 // Float64bits mirror of threshold, for lock-free reads
	puts      int
	active    bool
	// warmupSame and warmupDiff record the NN distances seen during
	// warm-up for same-value and different-value neighbours, so the
	// initial threshold reflects the data (Figure 6's "initializing the
	// threshold" from cached entries).
	warmupSame []float64
	warmupDiff []float64
	// counters for observability.
	tightenings int
	loosenings  int
}

// NewTuner returns a tuner with the given configuration (zero fields take
// the paper's defaults).
func NewTuner(cfg TunerConfig) *Tuner {
	return &Tuner{cfg: cfg.withDefaults()}
}

// Threshold returns the current similarity threshold. It is zero until
// warm-up completes. Lock-free: safe to call from any lookup.
func (t *Tuner) Threshold() float64 {
	return math.Float64frombits(t.thr.Load())
}

// SearchRadius is how far, in thresholds, a lookup or a put looks for a
// neighbour once the tuner is active with a threshold T > 0: within
// SearchRadius·T only. Beyond T Algorithm 1 acts on a neighbour only when
// it holds the same value (it loosens T toward it, and the reputation
// table rewards its app), so a bounded search changes one thing: a
// same-valued neighbour beyond SearchRadius·T no longer loosens T, and
// one loosening grows T at most (1-γ)·SearchRadius + γ times (1.6× at the
// defaults). 4 is the largest multiple of the what-if sweep's default
// grid, which therefore stays exact.
const SearchRadius = 4

// searchRadius is how far a probe under threshold T looks: SearchRadius·T,
// or everywhere while T is 0. That covers warm-up, whose threshold choice
// (WarmupThreshold) needs far different-valued distances, and an active
// tuner at 0, which must still be able to loosen.
func searchRadius(threshold float64) float64 {
	if threshold > 0 {
		return SearchRadius * threshold
	}
	return math.Inf(1)
}

// setThresholdLocked updates the threshold and its atomic mirror;
// caller holds t.mu.
func (t *Tuner) setThresholdLocked(v float64) {
	t.threshold = v
	t.thr.Store(math.Float64bits(v))
}

// Active reports whether warm-up has completed.
func (t *Tuner) Active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// Reset returns the tuner to its initial state. register() resets the
// threshold per §4.3.
func (t *Tuner) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setThresholdLocked(0)
	t.puts = 0
	t.active = false
	t.warmupSame = nil
	t.warmupDiff = nil
	t.tightenings = 0
	t.loosenings = 0
}

// ObservePut feeds one put() observation into Algorithm 1.
//
// dist is the distance from the new key to its nearest neighbour in the
// index (before insertion); sameValue reports whether that neighbour's
// cached value equals the newly computed one; haveNeighbor is false when
// the index was empty.
func (t *Tuner) ObservePut(dist float64, sameValue, haveNeighbor bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	if !t.active {
		if haveNeighbor {
			if sameValue {
				t.warmupSame = append(t.warmupSame, dist)
			} else {
				t.warmupDiff = append(t.warmupDiff, dist)
			}
		}
		if t.puts >= t.cfg.WarmupZ {
			t.activateLocked()
		}
		return
	}
	if !haveNeighbor {
		return
	}
	switch {
	case dist <= t.threshold && !sameValue:
		// Line 7-8: threshold too loose; tighten aggressively.
		t.setThresholdLocked(t.threshold / t.cfg.K)
		t.tightenings++
	case dist > t.threshold && sameValue:
		// Line 9-10: threshold too tight; loosen with an EWMA.
		t.setThresholdLocked(float64((1-t.cfg.Gamma)*dist) + float64(t.cfg.Gamma*t.threshold))
		t.loosenings++
	}
}

// activateLocked initializes the threshold from the warm-up
// observations via WarmupThreshold and discards the recorded samples.
func (t *Tuner) activateLocked() {
	t.active = true
	t.setThresholdLocked(WarmupThreshold(t.warmupSame, t.warmupDiff))
	t.warmupSame = nil
	t.warmupDiff = nil
}

// warmupFalsePositivePenalty weighs an admitted different-value pair
// against covered same-value pairs when choosing the initial threshold:
// a wrong reuse costs accuracy, which the paper values over raw savings
// ("the threshold is loosened conservatively", §3.5).
const warmupFalsePositivePenalty = 4

// WarmupThreshold chooses the initial similarity threshold from warm-up
// nearest-neighbour observations: the distances at which a new entry's
// nearest cached neighbour carried the same value (reuse would have been
// correct) and a different value (reuse would have been wrong). It
// returns the cut that maximizes covered same-value pairs minus a
// penalty per admitted different-value pair — the observed diameter of
// the "similar result" cluster (§3.5 intuition), discriminatively
// bounded. With more warm-up entries both estimates sharpen, which is
// why threshold accuracy grows with the number of initializing entries
// (Figure 6).
func WarmupThreshold(same, diff []float64) float64 {
	if len(same) == 0 {
		return 0
	}
	sortedSame := append([]float64(nil), same...)
	sortedDiff := append([]float64(nil), diff...)
	sort.Float64s(sortedSame)
	sort.Float64s(sortedDiff)
	best, bestScore := 0.0, 0.0
	j := 0
	for i, th := range sortedSame {
		for j < len(sortedDiff) && sortedDiff[j] <= th {
			j++
		}
		score := float64(i+1) - float64(warmupFalsePositivePenalty*float64(j))
		if score > bestScore {
			best, bestScore = th, score
		}
	}
	return best
}

// ForceActivate completes warm-up immediately with the given initial
// threshold, used by experiments that sweep fixed thresholds (Figure 9).
func (t *Tuner) ForceActivate(threshold float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = true
	t.setThresholdLocked(threshold)
}

// TunerState is the tuner's complete durable state: everything needed
// to resume Algorithm 1 after a restart without re-learning, including
// the warm-up observations of a tuner that has not yet activated.
type TunerState struct {
	Threshold   float64
	Active      bool
	Puts        int
	Tightenings int
	Loosenings  int
	WarmupSame  []float64
	WarmupDiff  []float64
}

// ExportState captures the full state for persistence. The returned
// slices are copies.
func (t *Tuner) ExportState() TunerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TunerState{
		Threshold:   t.threshold,
		Active:      t.active,
		Puts:        t.puts,
		Tightenings: t.tightenings,
		Loosenings:  t.loosenings,
		WarmupSame:  append([]float64(nil), t.warmupSame...),
		WarmupDiff:  append([]float64(nil), t.warmupDiff...),
	}
}

// RestoreState replaces the tuner's state with a previously exported
// one, so a restarted cache resumes tuning exactly where it left off —
// threshold, activation, counters, and any in-flight warm-up samples.
func (t *Tuner) RestoreState(s TunerState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setThresholdLocked(s.Threshold)
	t.active = s.Active
	t.puts = s.Puts
	t.tightenings = s.Tightenings
	t.loosenings = s.Loosenings
	t.warmupSame = append([]float64(nil), s.WarmupSame...)
	t.warmupDiff = append([]float64(nil), s.WarmupDiff...)
}

// Stats reports counters for observability and experiment output.
func (t *Tuner) Stats() TunerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TunerStats{
		Threshold:   t.threshold,
		Puts:        t.puts,
		Active:      t.active,
		Tightenings: t.tightenings,
		Loosenings:  t.loosenings,
	}
}

// TunerStats is a snapshot of a tuner's state.
type TunerStats struct {
	Threshold   float64
	Puts        int
	Active      bool
	Tightenings int
	Loosenings  int
}

// String implements fmt.Stringer.
func (s TunerStats) String() string {
	return fmt.Sprintf("threshold=%.6g puts=%d active=%v tighten=%d loosen=%d",
		s.Threshold, s.Puts, s.Active, s.Tightenings, s.Loosenings)
}
