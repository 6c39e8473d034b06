package telemetry

import "testing"

// The bundle's recording path must tolerate being absent: callers hold an
// optional *Telemetry (or one without a span recorder) and record
// unconditionally.
func TestTracerNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.RecordSpan(Span{Outcome: OutcomeHit}) // must not panic

	bare := &Telemetry{Registry: NewRegistry()}
	bare.RecordSpan(Span{Outcome: OutcomeHit}) // nil Spans: must not panic
	if bare.Spans.Len() != 0 || bare.Spans.Snapshot(SpanFilter{}) != nil {
		t.Fatal("telemetry without a span recorder should report no spans")
	}

	tel = New()
	tel.RecordSpan(Span{Trace: NewTraceID(), Outcome: OutcomeHit})
	if tel.Spans.Len() != 1 {
		t.Fatalf("recorded span not retained: len=%d", tel.Spans.Len())
	}
}
