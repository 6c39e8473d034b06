package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// opNames are the request kinds the server exports series for. They are
// pre-created at Instrument time so the admin endpoint's /metrics is
// fully shaped (histogram buckets included) from the first scrape, even
// before any request arrives.
var opNames = []string{"register", "lookup", "put", "stats", "multilookup", "multiput", "peerinfo", "unknown"}

func opName(t MsgType) string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgLookup:
		return "lookup"
	case MsgPut:
		return "put"
	case MsgStats:
		return "stats"
	case MsgMultiLookup:
		return "multilookup"
	case MsgMultiPut:
		return "multiput"
	case MsgPeerInfo:
		return "peerinfo"
	default:
		return "unknown"
	}
}

// opSeries is one request kind's pre-resolved series: resolved once at
// Instrument time so the per-request cost is two atomic adds and a
// histogram observation, never a registry lookup.
type opSeries struct {
	ok   *telemetry.Counter
	errs *telemetry.Counter
	lat  *telemetry.Histogram
}

// serverMetrics holds the server's telemetry series.
type serverMetrics struct {
	ops            map[string]*opSeries
	decodeErrs     *telemetry.Counter
	rejectedConns  *telemetry.Counter
	droppedConns   *telemetry.Counter
	suppressedLogs *telemetry.Counter
	// replies over flushes is the coalescing factor: how many reply
	// frames one write of a connection loop carries.
	replies *telemetry.Counter
	flushes *telemetry.Counter
	// spans is the hub's span recorder; traced requests (a non-zero
	// trace ID on the wire) record a server-layer span into it.
	spans *telemetry.SpanRecorder
}

// Instrument attaches the server to a telemetry hub: per-op request
// counters and latency histograms, connection gauges, and log-suppression
// counts. Call it before Serve; it is not safe to call concurrently
// with request handling.
func (s *Server) Instrument(tel *telemetry.Telemetry) {
	r := tel.Registry
	reqs := r.CounterVec("potluck_server_requests_total",
		"Requests served, by operation and result.", "op", "result")
	lat := r.HistogramVec("potluck_server_request_latency_seconds",
		"Request dispatch latency (cache work, excluding socket I/O).", "op")
	m := &serverMetrics{
		ops: make(map[string]*opSeries, len(opNames)),
		decodeErrs: r.Counter("potluck_server_decode_errors_total",
			"Request frames that failed to decode."),
		rejectedConns: r.Counter("potluck_server_rejected_conns_total",
			"Connections refused at the MaxConns cap."),
		droppedConns: r.Counter("potluck_server_dropped_conns_total",
			"Connections dropped mid-stream (timeouts, oversize frames, write failures)."),
		suppressedLogs: r.Counter("potluck_server_suppressed_logs_total",
			"Diagnostic log lines suppressed by the per-key rate limiter."),
		replies: r.Counter("potluck_server_replies_written_total",
			"Reply frames written to connections."),
		flushes: r.Counter("potluck_server_flushes_total",
			"Socket writes that carried them; replies written per flush is the coalescing factor."),
		spans: tel.Spans,
	}
	for _, op := range opNames {
		m.ops[op] = &opSeries{
			ok:   reqs.With(op, "ok"),
			errs: reqs.With(op, "error"),
			lat:  lat.With(op),
		}
	}
	r.Gauge("potluck_server_open_conns", "Currently open application connections.").
		SetFunc(func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	s.met = m
}

// AdminStats is the JSON document the daemon serves at the admin
// endpoint's /stats path; potluck-cli decodes the same struct.
type AdminStats struct {
	UptimeSeconds float64              `json:"uptimeSeconds"`
	Hits          int64                `json:"hits"`
	Misses        int64                `json:"misses"`
	Dropouts      int64                `json:"dropouts"`
	HitRate       float64              `json:"hitRate"`
	Puts          int64                `json:"puts"`
	RejectedPuts  int64                `json:"rejectedPuts"`
	Evictions     int64                `json:"evictions"`
	Expirations   int64                `json:"expirations"`
	Invalidations int64                `json:"invalidations"`
	Entries       int                  `json:"entries"`
	Bytes         int64                `json:"bytes"`
	SavedSeconds  float64              `json:"savedComputeSeconds"`
	Functions     []core.FunctionStats `json:"functions"`
}

// AdminStats snapshots the cache for the admin endpoint. started is the
// daemon's start time (zero omits the uptime).
func (s *Server) AdminStats(started time.Time) AdminStats {
	st := s.cache.Stats()
	out := AdminStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Dropouts:      st.Dropouts,
		HitRate:       st.HitRate(),
		Puts:          st.Puts,
		RejectedPuts:  st.RejectedPuts,
		Evictions:     st.Evictions,
		Expirations:   st.Expirations,
		Invalidations: st.Invalidations,
		Entries:       st.Entries,
		Bytes:         st.Bytes,
		SavedSeconds:  st.SavedCompute.Seconds(),
		Functions:     s.cache.FunctionStats(),
	}
	if !started.IsZero() {
		out.UptimeSeconds = time.Since(started).Seconds()
	}
	return out
}

// clientMetrics are the client's reconnect-path counters, shared by all
// clients instrumented against the same registry.
type clientMetrics struct {
	retries *telemetry.Counter
	redials *telemetry.Counter
	broken  *telemetry.Counter
	// spans is the application's span recorder; traced round trips record
	// a client-layer span into it.
	spans *telemetry.SpanRecorder
}

// Instrument attaches the client to a telemetry hub, counting request
// retries, redials, and poisoned connections. Safe to call at most once,
// before issuing requests.
func (c *Client) Instrument(tel *telemetry.Telemetry) {
	r := tel.Registry
	c.met.Store(&clientMetrics{
		retries: r.Counter("potluck_client_retries_total",
			"Requests re-attempted after a connection failure."),
		redials: r.Counter("potluck_client_redials_total",
			"Reconnects performed after a poisoned connection."),
		broken: r.Counter("potluck_client_broken_conns_total",
			"Connections poisoned by I/O or framing failures."),
		spans: tel.Spans,
	})
}

// Instrument attaches the tiered cache's remote-path health to a
// telemetry hub: breaker transitions are counted, and the current
// state plus absorbed remote errors are exported as series.
func (t *Tiered) Instrument(tel *telemetry.Telemetry) {
	r := tel.Registry
	transitions := r.CounterVec("potluck_breaker_transitions_total",
		"Remote-tier circuit breaker transitions, by destination state.", "to")
	r.Counter("potluck_remote_errors_total",
		"Remote-tier failures absorbed (degraded lookups, skipped write-throughs).").
		SetFunc(t.remoteErrs.Load)
	r.Gauge("potluck_breaker_open",
		"1 while the remote-tier breaker refuses calls, else 0.").
		SetFunc(func() float64 {
			if t.BreakerState() == BreakerOpen {
				return 1
			}
			return 0
		})
	t.breaker().SetNotify(func(_, to string) { transitions.With(to).Inc() })
}
