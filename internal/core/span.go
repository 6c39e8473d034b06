package core

import (
	"time"

	"repro/internal/telemetry"
)

// Span recording for the core lookup/put pipeline, the cache's only
// record of its decisions: hits and puts build a span only when traced
// — forced by a propagated trace ID or sampled by spanSampleMask —
// while misses, dropouts, and errors always record one (they are the
// decisions worth debugging and are rare by comparison). Detailed
// (traced) spans carry stage clocks and a tuner snapshot;
// always-recorded spans carry only the decision fields the lookup
// computed anyway, so they cost one ring write.

// spanSampleMask samples locally initiated spans 1-in-64 against the
// low bits of the lookup's start timestamp — a clock value the lookup
// has already paid for, so the sampling decision costs one AND and one
// compare, no extra atomics. At 1-in-64 the stage clocks (two to four
// extra monotonic reads) and the tuner.Stats() mutex are amortized into
// noise on a sub-microsecond lookup, and hits — the highest-rate
// outcome — never make the recorder's ring cursor a contention point.
const spanSampleMask = 63

// nowFast reads the stage clock: the monotonic wall clock when the
// cache runs on real time, the injected clock otherwise (so tests with
// fake clocks see consistent span timings). Stage time since a mark is
// c.since(mark).
func (c *Cache) nowFast() time.Time {
	if c.realClk {
		return time.Now()
	}
	return c.clk.Now()
}

// spanFields carries the per-call variation of a lookup span so
// recordLookupSpan keeps a manageable signature.
type spanFields struct {
	outcome   string
	errText   string
	dist      float64
	threshold float64
	roll      float64
	probes    int
	stages    []telemetry.SpanStage
	trace     telemetry.TraceID
	// detailed attaches stage clocks and the tuner snapshot (traced
	// lookups only: tuner.Stats() takes the tuner mutex).
	detailed bool
}

// recordLookupSpan assembles and records one core-layer span, minting a
// trace ID when none was propagated so the result (and any exemplar)
// always references a retained trace. It stamps the key type's latency
// histogram exemplar with the span's duration, linking the /metrics
// aggregate to this concrete trace. Returns the span's trace ID.
// Caller guarantees c.spans != nil; ki may be nil (resolution errors).
func (c *Cache) recordLookupSpan(ki *keyIndex, fn, keyType string, start time.Time, f spanFields) telemetry.TraceID {
	trace := f.trace
	if trace == 0 {
		trace = telemetry.NewTraceID()
	}
	sp := telemetry.Span{
		Trace:       trace,
		Start:       start.UnixNano(),
		DurationNs:  int64(c.since(start)),
		Layer:       "core",
		Function:    fn,
		KeyType:     keyType,
		Outcome:     f.outcome,
		Err:         f.errText,
		Distance:    f.dist,
		Threshold:   f.threshold,
		DropoutRoll: f.roll,
		DropoutRate: c.cfg.DropoutRate,
		Probes:      f.probes,
	}
	if ki != nil {
		sp.IndexKind = string(ki.spec.Index)
	}
	if f.detailed {
		sp.Stages = f.stages
		if ki != nil {
			st := ki.tuner.Stats()
			sp.Tuner = &telemetry.TunerState{
				Threshold:   st.Threshold,
				Puts:        st.Puts,
				Active:      st.Active,
				Tightenings: st.Tightenings,
				Loosenings:  st.Loosenings,
			}
		}
	}
	c.spans.Record(sp)
	if ki != nil && ki.lat != nil {
		ki.lat.SetExemplar(time.Duration(sp.DurationNs), trace)
	}
	return trace
}
