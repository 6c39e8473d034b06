package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Admin response bounds: JSON bodies are rendered into pooled buffers
// (so a scrape loop does not churn allocations) and hard-capped, since
// /trace/spans payloads scale with recorder capacity and an unbounded
// dump could stall the daemon's admin goroutine on a slow reader.
const (
	// maxAdminBody caps any single admin JSON response.
	maxAdminBody = 8 << 20
	// defaultTraceItems bounds /trace/spans item counts when the request
	// does not pass ?n=.
	defaultTraceItems = 1024
)

var adminBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AdminConfig carries the daemon callbacks the admin surface exposes.
type AdminConfig struct {
	// Stats supplies the /stats payload (nil → raw registry gather).
	Stats func() any
	// Explain supplies the /debug/explain payload for a function name
	// and a decision count (nil → endpoint returns 404).
	Explain func(fn string, n int) (any, error)
	// WhatIf supplies the /whatif payload — the counterfactual
	// profiler's report (nil → endpoint returns 404, the profiler is
	// detached).
	WhatIf func() any
}

// AdminHandler builds the daemon's observability endpoint with just a
// stats callback; see AdminHandlerConfig for the full surface.
func AdminHandler(t *Telemetry, stats func() any) http.Handler {
	return AdminHandlerConfig(t, AdminConfig{Stats: stats})
}

// AdminHandlerConfig builds the daemon's observability endpoint:
//
//	/metrics        Prometheus text exposition of the registry
//	/stats          JSON snapshot from the stats callback (the daemon
//	                supplies cache + server state; see service.AdminStats)
//	/trace/spans    JSON dump of retained request spans; filters:
//	                ?fn= ?layer= ?outcome= ?min= (duration) ?trace= (hex) ?n=
//	/whatif         JSON report of the counterfactual profiler (miss-ratio
//	                curve, threshold sweeps, predicted-vs-measured); 404
//	                when the daemon runs without -whatif
//	/debug/explain  last-N decision report for one function: ?fn= (required) ?n=
//	/debug/pprof    the standard Go profiler surface
//
// Every endpoint sets an explicit Content-Type and Cache-Control:
// no-store (admin payloads are live state; a caching proxy must never
// serve them stale). JSON bodies are built in pooled buffers and capped
// at maxAdminBody. The handler only reads atomics and snapshots; it
// never takes a data-path lock, so scraping a loaded daemon is safe.
func AdminHandlerConfig(t *Telemetry, cfg AdminConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		var v any
		if cfg.Stats != nil {
			v = cfg.Stats()
		} else {
			v = t.Registry.Gather()
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/trace/spans", func(w http.ResponseWriter, r *http.Request) {
		f := SpanFilter{
			Function: r.URL.Query().Get("fn"),
			Layer:    r.URL.Query().Get("layer"),
			Outcome:  r.URL.Query().Get("outcome"),
			Limit:    queryInt(r, "n", defaultTraceItems),
		}
		if v := r.URL.Query().Get("min"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad min duration: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDuration = d
		}
		if v := r.URL.Query().Get("trace"); v != "" {
			id, err := ParseTraceID(v)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			f.Trace = id
		}
		spans := t.Spans.Snapshot(f)
		writeJSON(w, struct {
			Recorded uint64 `json:"recorded"`
			Capacity int    `json:"capacity"`
			Spans    []Span `json:"spans"`
		}{t.Spans.Len(), t.Spans.Capacity(), spans})
	})
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Explain == nil {
			http.NotFound(w, r)
			return
		}
		fn := r.URL.Query().Get("fn")
		if fn == "" {
			http.Error(w, "missing required parameter fn", http.StatusBadRequest)
			return
		}
		n := queryInt(r, "n", 20)
		v, err := cfg.Explain(fn, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/whatif", func(w http.ResponseWriter, r *http.Request) {
		if cfg.WhatIf == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, cfg.WhatIf())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("potluckd admin endpoint\n\n/metrics\n/stats\n/trace/spans\n/whatif\n/debug/explain\n/debug/pprof/\n"))
	})
	return noStore(mux)
}

// noStore stamps Cache-Control on every admin response: all payloads
// are live state.
func noStore(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		next.ServeHTTP(w, r)
	})
}

// queryInt parses a positive integer query parameter with a default;
// values are clamped to [1, defaultTraceItems*8] so a hostile ?n=
// cannot force unbounded response work.
func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return def
	}
	if max := defaultTraceItems * 8; n > max {
		return max
	}
	return n
}

// writeJSON renders v into a pooled buffer, enforcing the body cap, and
// writes it with an explicit length so clients see a clean truncation
// error instead of a silently chopped document.
func writeJSON(w http.ResponseWriter, v any) {
	buf := adminBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxAdminBody {
			buf.Reset()
			adminBufPool.Put(buf)
		}
	}()
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if buf.Len() > maxAdminBody {
		http.Error(w, "response exceeds admin body cap", http.StatusInsufficientStorage)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}
