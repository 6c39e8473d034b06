package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: structured per-request records for the lookup pipeline,
// and the one record of what the cache decided.
//
// A Span answers both "what happened recently" and "why did THIS lookup
// do what it did": it carries the request's 64-bit trace ID, per-stage
// wall times, and the decision inputs of the approximate-matching
// pipeline (nearest distance, active threshold, tuner state, dropout
// roll, index probe count). Aggregates the spans do not carry one by
// one (evictions, expirations, breaker transitions) are counters on the
// registry. Spans are propagated across the IPC boundary by an optional
// trailing trace-ID field in the wire protocol, so client, server, and
// hub record into their own recorders under one shared ID.
//
// Retention is tail-based: a plain ring of recent spans would lose
// exactly the spans worth keeping (the slow ones, the failures) to
// overwrite by the fast majority. The recorder therefore keeps three
// buffers — a reservoir of recent spans, a dedicated ring that only
// error and dropout spans enter, and a slowest-N set guarded by an
// atomic duration floor — so anomalies survive arbitrarily long hit
// storms.

// TraceID identifies one logical request across layers and processes.
// Zero means "untraced".
type TraceID uint64

// String renders the ID as fixed-width hex, the form used in exemplar
// comments and query parameters.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalJSON renders the ID as a hex string: 64-bit values are not
// safely representable as JSON numbers (IEEE doubles above 2^53).
func (t TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// UnmarshalJSON accepts the hex-string form (and bare numbers, for
// hand-written inputs).
func (t *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		id, err := ParseTraceID(s)
		if err != nil {
			return err
		}
		*t = id
		return nil
	}
	var n uint64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*t = TraceID(n)
	return nil
}

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return TraceID(n), nil
}

// traceIDState seeds NewTraceID: a process-random base XORed with an
// atomic counter, so IDs are unique within a process, never zero, and
// two processes sharing a trace do not collide on fresh IDs.
var (
	traceIDBase    = rand.Uint64() | 1
	traceIDCounter atomic.Uint64
)

// NewTraceID mints a process-unique non-zero trace ID. One atomic add:
// cheap enough to call on sampled hot-path lookups.
func NewTraceID() TraceID {
	for {
		id := TraceID(traceIDBase ^ (traceIDCounter.Add(1) * 0x9e3779b97f4a7c15))
		if id != 0 {
			return id
		}
	}
}

// Span stage names used by the Potluck stack. The field is an open
// string so layers can add their own.
const (
	StageKeyGen  = "keygen"  // feature extraction (key generation)
	StageProbe   = "probe"   // index nearest-neighbour query
	StageDecide  = "decide"  // threshold decision + entry resolution
	StageRefine  = "refine"  // post-lookup incremental computation
	StageIPC     = "ipc"     // client round trip to the service
	StageServe   = "serve"   // server-side dispatch (handler-pool wait included)
	StagePeer    = "peer"    // mesh hop to an owner peer (Detail = peer ID)
	StageResolve = "resolve" // put: key resolution / extraction
	StageTune    = "tune"    // put: Algorithm-1 tuner feed
	StageInsert  = "insert"  // put: index insertion + publication
	StageAdmit   = "admit"   // put: expiry scheduling + capacity eviction
)

// Span outcomes.
const (
	OutcomeHit     = "hit"
	OutcomeMiss    = "miss"
	OutcomeDropout = "dropout"
	OutcomePut     = "put"
	OutcomeError   = "error"
)

// SpanStage is one timed step inside a span.
type SpanStage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"durationNs"`
	// Probes is the index scan count for the probe stage (entries or
	// tree nodes examined answering this query); -1 when unmeasured.
	Probes int `json:"probes,omitempty"`
	// Detail carries stage-specific text (eviction cause, extractor name).
	Detail string `json:"detail,omitempty"`
}

// TunerState is the tuner snapshot a span carries: the Algorithm-1
// window statistics in force when the decision was made. Declared here
// (not in core) so telemetry stays import-free of the rest of the repo.
type TunerState struct {
	Threshold   float64 `json:"threshold"`
	Puts        int     `json:"puts"`
	Active      bool    `json:"active"`
	Tightenings int     `json:"tightenings"`
	Loosenings  int     `json:"loosenings"`
}

// Span is one layer's record of a traced request.
type Span struct {
	// Trace links spans of one logical request across layers and
	// processes.
	Trace TraceID `json:"trace"`
	// Seq is the recorder-local sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Start is the span start time in UnixNano (producer's clock).
	Start int64 `json:"startUnixNano"`
	// DurationNs is the span's total wall time.
	DurationNs int64 `json:"durationNs"`
	// Layer names the recording layer: "core", "server", "client",
	// "feature".
	Layer    string `json:"layer"`
	Function string `json:"function,omitempty"`
	KeyType  string `json:"keyType,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Err carries the error text for OutcomeError spans.
	Err string `json:"err,omitempty"`
	// Distance is the nearest-neighbour distance examined (-1 when the
	// index was empty or the stage never ran).
	Distance float64 `json:"distance"`
	// Threshold is the similarity threshold in force.
	Threshold float64 `json:"threshold"`
	// DropoutRoll is the uniform draw of the random-dropout coin and
	// DropoutRate the probability it was compared against; a roll below
	// the rate skipped the cache (§3.4). Roll is -1 when no coin was
	// drawn (dropout disabled).
	DropoutRoll float64 `json:"dropoutRoll"`
	DropoutRate float64 `json:"dropoutRate"`
	// IndexKind names the index structure probed.
	IndexKind string `json:"indexKind,omitempty"`
	// Probes is the index scan count for the whole span (-1 unmeasured).
	Probes int `json:"probes"`
	// Tuner snapshots the Algorithm-1 state at decision time; nil on
	// spans recorded without detailed sampling.
	Tuner *TunerState `json:"tuner,omitempty"`
	// Stages are the timed pipeline steps, in execution order. Empty on
	// spans recorded without detailed sampling (always-retained misses).
	Stages []SpanStage `json:"stages,omitempty"`
}

// SpanFilter selects spans from a snapshot. Zero fields match
// everything.
type SpanFilter struct {
	// Function matches Span.Function exactly.
	Function string
	// Layer matches Span.Layer exactly.
	Layer string
	// Outcome matches Span.Outcome exactly.
	Outcome string
	// Trace matches Span.Trace exactly.
	Trace TraceID
	// MinDuration drops spans faster than this.
	MinDuration time.Duration
	// Limit caps the result count, keeping the MOST RECENT spans
	// (highest sequence numbers). <= 0 means no cap.
	Limit int
}

func (f SpanFilter) match(sp *Span) bool {
	if f.Function != "" && sp.Function != f.Function {
		return false
	}
	if f.Layer != "" && sp.Layer != f.Layer {
		return false
	}
	if f.Outcome != "" && sp.Outcome != f.Outcome {
		return false
	}
	if f.Trace != 0 && sp.Trace != f.Trace {
		return false
	}
	if f.MinDuration > 0 && sp.DurationNs < int64(f.MinDuration) {
		return false
	}
	return true
}

// spanSlot is one ring cell. The per-slot mutex makes slot access
// race-clean while keeping writers independent: two writers only meet
// on the same slot after the ring has wrapped a full capacity between
// them, so the lock is effectively uncontended.
type spanSlot struct {
	mu sync.Mutex
	sp Span
}

// Default SpanRecorder shape: the reservoir holds the recent-request
// window, the anomaly ring holds error/dropout spans that would
// otherwise be overwritten by hit traffic, and slowest-N is the latency
// tail. ~1024 spans ≈ a few hundred KB; always-on territory.
const (
	DefaultSpanCapacity    = 1024
	DefaultAnomalyCapacity = 256
	DefaultSlowestN        = 32
)

// SpanRecorder retains spans with tail-based sampling. Record is
// lock-light (an atomic cursor plus one effectively uncontended slot
// mutex; the slowest-N heap is only locked when a span actually beats
// the current floor, checked with a single atomic load). The nil
// recorder drops spans, so tracing can be compiled in unconditionally.
type SpanRecorder struct {
	recent []spanSlot // reservoir of recent spans (power-of-two ring)
	rmask  uint64
	rcur   atomic.Uint64

	anomalies []spanSlot // error + dropout spans, never displaced by hits
	amask     uint64
	acur      atomic.Uint64

	// slow is a min-heap on DurationNs of the slowest-N spans ever
	// recorded; slowFloor mirrors the heap minimum so the common
	// fast-span case skips the lock entirely.
	slowMu    sync.Mutex
	slow      []Span
	slowN     int
	slowFloor atomic.Int64

	seq atomic.Uint64
}

// NewSpanRecorder builds a recorder; non-positive arguments take the
// defaults. Ring capacities round up to powers of two.
func NewSpanRecorder(capacity, anomalyCapacity, slowestN int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if anomalyCapacity <= 0 {
		anomalyCapacity = DefaultAnomalyCapacity
	}
	if slowestN <= 0 {
		slowestN = DefaultSlowestN
	}
	rsize := 1
	for rsize < capacity {
		rsize <<= 1
	}
	asize := 1
	for asize < anomalyCapacity {
		asize <<= 1
	}
	r := &SpanRecorder{
		recent:    make([]spanSlot, rsize),
		rmask:     uint64(rsize - 1),
		anomalies: make([]spanSlot, asize),
		amask:     uint64(asize - 1),
		slow:      make([]Span, 0, slowestN),
		slowN:     slowestN,
	}
	// Until the slowest-N set is full every span beats the floor.
	r.slowFloor.Store(-1)
	return r
}

// Record retains sp under the tail-based policy. Safe for concurrent
// use; a nil recorder drops the span. The span's Stages slice is
// retained by reference — callers must not reuse its backing array.
func (r *SpanRecorder) Record(sp Span) {
	if r == nil {
		return
	}
	sp.Seq = r.seq.Add(1)
	slot := &r.recent[(r.rcur.Add(1)-1)&r.rmask]
	slot.mu.Lock()
	slot.sp = sp
	slot.mu.Unlock()
	if sp.Outcome == OutcomeError || sp.Outcome == OutcomeDropout {
		aslot := &r.anomalies[(r.acur.Add(1)-1)&r.amask]
		aslot.mu.Lock()
		aslot.sp = sp
		aslot.mu.Unlock()
	}
	if sp.DurationNs > r.slowFloor.Load() {
		r.recordSlow(sp)
	}
}

// recordSlow admits sp to the slowest-N set if it still beats the floor
// under the lock (the lock-free pre-check may race).
func (r *SpanRecorder) recordSlow(sp Span) {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if len(r.slow) < r.slowN {
		r.slow = append(r.slow, sp)
		r.siftUpLocked(len(r.slow) - 1)
		if len(r.slow) == r.slowN {
			r.slowFloor.Store(r.slow[0].DurationNs)
		}
		return
	}
	if sp.DurationNs <= r.slow[0].DurationNs {
		return
	}
	r.slow[0] = sp
	r.siftDownLocked(0)
	r.slowFloor.Store(r.slow[0].DurationNs)
}

func (r *SpanRecorder) siftUpLocked(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.slow[i].DurationNs >= r.slow[parent].DurationNs {
			return
		}
		r.slow[i], r.slow[parent] = r.slow[parent], r.slow[i]
		i = parent
	}
}

func (r *SpanRecorder) siftDownLocked(i int) {
	n := len(r.slow)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if rr := l + 1; rr < n && r.slow[rr].DurationNs < r.slow[l].DurationNs {
			m = rr
		}
		if r.slow[m].DurationNs >= r.slow[i].DurationNs {
			return
		}
		r.slow[i], r.slow[m] = r.slow[m], r.slow[i]
		i = m
	}
}

// Len reports how many spans have ever been recorded.
func (r *SpanRecorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Capacity reports the reservoir ring size (the anomaly ring and
// slowest-N set retain additional spans beyond it).
func (r *SpanRecorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.recent)
}

// collectRing appends the live spans of one ring to out.
func collectRing(slots []spanSlot, out []Span) []Span {
	for i := range slots {
		slot := &slots[i]
		slot.mu.Lock()
		sp := slot.sp
		slot.mu.Unlock()
		if sp.Seq != 0 {
			out = append(out, sp)
		}
	}
	return out
}

// Snapshot returns the retained spans matching f, oldest first,
// deduplicated across the three retention buffers. With Limit set, the
// most recent matches win.
func (r *SpanRecorder) Snapshot(f SpanFilter) []Span {
	if r == nil {
		return nil
	}
	all := make([]Span, 0, len(r.recent)+len(r.anomalies)+r.slowN)
	all = collectRing(r.recent, all)
	all = collectRing(r.anomalies, all)
	r.slowMu.Lock()
	all = append(all, r.slow...)
	r.slowMu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	out := all[:0]
	var lastSeq uint64
	for i := range all {
		sp := &all[i]
		if sp.Seq == lastSeq {
			continue // retained by more than one buffer
		}
		lastSeq = sp.Seq
		if f.match(sp) {
			out = append(out, *sp)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Find returns the retained spans carrying the given trace ID, oldest
// first (the exemplar-resolution path: a trace ID scraped off /metrics
// resolves here).
func (r *SpanRecorder) Find(trace TraceID) []Span {
	return r.Snapshot(SpanFilter{Trace: trace})
}
