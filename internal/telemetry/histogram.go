package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets. Bucket i covers durations
// d with bits.Len64(d) == i, i.e. [2^(i-1), 2^i) nanoseconds (bucket 0
// holds zero-duration observations). 40 buckets reach 2^39 ns ≈ 9.2
// minutes; anything slower lands in the last bucket. A histogram is
// therefore a fixed 40×8-byte array of counters — no allocation per
// observation, no resizing, no locking.
const histBuckets = 40

// Histogram is a lock-free latency histogram with logarithmic buckets.
// Observe is two atomic adds (bucket, sum) plus an atomic load (and a
// CAS only when a new maximum is set) — suitable for paths running
// millions of times per second. The total observation count is derived
// from the buckets at snapshot time rather than maintained as its own
// atomic, which both removes a hot-path add and makes the invariant
// Count == Σ Buckets hold exactly within every snapshot. The zero
// value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	// exemplars[i] holds the trace ID of a recent observation that
	// landed in bucket i (0 = none yet), linking the aggregate back to a
	// concrete retained span. Plain atomic stores: last writer wins,
	// which is exactly the "a recent observation" contract.
	exemplars [histBuckets]atomic.Uint64
}

// bucketIndex maps a duration to its log2 bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketUpperBound returns the exclusive upper bound of bucket i in
// nanoseconds (the last bucket is unbounded and reports MaxInt64).
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return 1 << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// SetExemplar stamps trace as the exemplar of the bucket d falls in.
// It does NOT count an observation — callers pair it with a separate
// Observe (possibly at a different sampling rate), so attaching
// exemplars never perturbs the bucket counts or derived Count.
func (h *Histogram) SetExemplar(d time.Duration, trace TraceID) {
	if trace == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.exemplars[bucketIndex(d)].Store(uint64(trace))
}

// ObserveTraced records one duration and stamps its trace ID as the
// bucket's exemplar.
func (h *Histogram) ObserveTraced(d time.Duration, trace TraceID) {
	h.Observe(d)
	h.SetExemplar(d, trace)
}

// Count returns the number of recorded observations (a bucket sweep;
// intended for snapshots and tests, not hot paths).
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Snapshot captures the histogram's current state. The capture is not a
// single atomic cut — concurrent Observes may land between bucket
// reads — so Count is derived from the bucket sum, keeping the
// invariant Count == Σ Buckets exact within any snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var total uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		total += n
		s.Exemplars[i] = TraceID(h.exemplars[i].Load())
	}
	s.Count = total
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// merge, serialize, and query for quantiles.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	// Exemplars[i] is the trace ID of a recent observation in bucket i
	// (0 = none).
	Exemplars [histBuckets]TraceID
}

// Merge adds other's observations into s (for aggregating per-series
// histograms into a global view). Exemplars are per-bucket witnesses,
// not counts: a bucket keeps its own exemplar and adopts other's only
// where it has none, so trace IDs survive the merge.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
		if s.Exemplars[i] == 0 {
			s.Exemplars[i] = other.Exemplars[i]
		}
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// of the recorded durations: the upper edge of the bucket containing
// the q-th observation, which bounds the true quantile from above by
// at most 2×. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			ub := BucketUpperBound(i)
			// The open-ended last bucket would report MaxInt64; the
			// recorded maximum is the honest upper bound there.
			if i == histBuckets-1 || time.Duration(ub) > s.Max {
				return s.Max
			}
			return time.Duration(ub)
		}
	}
	return s.Max
}

// Mean returns the average recorded duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// LatencySummary condenses a snapshot to the quantiles operators read.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"meanNs"`
	P50   time.Duration `json:"p50Ns"`
	P90   time.Duration `json:"p90Ns"`
	P99   time.Duration `json:"p99Ns"`
	Max   time.Duration `json:"maxNs"`
}

// Summary computes the standard quantile summary of the snapshot.
func (s HistogramSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
