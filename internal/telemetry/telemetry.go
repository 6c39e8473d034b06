// Package telemetry provides the observability substrate for the
// Potluck service: lock-free latency histograms cheap enough for the
// hot lookup path, a registry of named counter/gauge/histogram series
// with per-(function, keyType) labels, a tail-sampling span recorder
// that is the one record of what the cache decided, and the HTTP admin
// surface that exposes all of it (Prometheus text format, JSON
// snapshots, pprof).
//
// The package is stdlib-only and imports nothing from the rest of the
// repository, so every layer (core, index, service, cmd) can depend on
// it without cycles.
package telemetry

import "time"

// Telemetry bundles the observability primitives one process shares
// across layers: the metric registry, the span recorder, and the
// process start time (for uptime reporting).
type Telemetry struct {
	Registry *Registry
	// Spans retains per-request spans under tail-based sampling; see
	// SpanRecorder.
	Spans   *SpanRecorder
	Started time.Time
}

// New returns a Telemetry with a fresh registry and a default-shape
// span recorder.
func New() *Telemetry {
	return &Telemetry{
		Registry: NewRegistry(),
		Spans:    NewSpanRecorder(0, 0, 0),
		Started:  time.Now(),
	}
}

// RecordSpan records sp if t (and its span recorder) are non-nil, so
// callers can hold an optional *Telemetry and record unconditionally.
func (t *Telemetry) RecordSpan(sp Span) {
	if t == nil {
		return
	}
	t.Spans.Record(sp)
}
