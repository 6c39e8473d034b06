package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// HELP text with a newline or backslash must be escaped, or the line
// break corrupts every family after it in the exposition.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostile_total", "line one\nline two \\ backslash").Inc()
	r.Counter("after_total", "plain").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP hostile_total line one\nline two \\ backslash`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	// The document must stay line-structured: every non-comment line is
	// "name{labels} value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition:\n%s", out)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q in:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "after_total 1") {
		t.Fatalf("family after hostile HELP corrupted:\n%s", out)
	}
}

// Exemplar trace IDs ride as comment lines, one per non-empty bucket.
func TestPrometheusExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	id := NewTraceID()
	h.ObserveTraced(3*time.Microsecond, id)
	h.ObserveTraced(20*time.Minute, 77) // overflow bucket → le="+Inf"
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := fmt.Sprintf("# exemplar lat_seconds_bucket{le=\"4.096e-06\"} trace_id=%s", id)
	if !strings.Contains(out, want) {
		t.Fatalf("missing exemplar %q in:\n%s", want, out)
	}
	if !strings.Contains(out, `le="+Inf"} trace_id=`+TraceID(77).String()) {
		t.Fatalf("missing +Inf exemplar in:\n%s", out)
	}
}

func getResp(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// Every admin endpoint must declare an explicit Content-Type and
// Cache-Control: no-store.
func TestAdminEndpointHeaders(t *testing.T) {
	tel := New()
	tel.Registry.Counter("c_total", "c").Inc()
	tel.Spans.Record(Span{Trace: 1, Outcome: OutcomeHit})
	srv := httptest.NewServer(AdminHandlerConfig(tel, AdminConfig{
		Stats:   func() any { return map[string]int{"x": 1} },
		Explain: func(fn string, n int) (any, error) { return map[string]string{"fn": fn}, nil },
	}))
	defer srv.Close()

	cases := []struct{ path, ctype string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/stats", "application/json"},
		{"/trace/spans", "application/json"},
		{"/debug/explain?fn=f", "application/json"},
		{"/", "text/plain; charset=utf-8"},
	}
	for _, c := range cases {
		resp, _ := getResp(t, srv, c.path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", c.path, got)
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("%s: Content-Type = %q, want %q", c.path, got, c.ctype)
		}
	}
}

func TestTraceSpansEndpoint(t *testing.T) {
	tel := New()
	hitID, missID := NewTraceID(), NewTraceID()
	tel.Spans.Record(Span{Trace: hitID, Layer: "core", Function: "f", Outcome: OutcomeHit, DurationNs: 1000})
	tel.Spans.Record(Span{Trace: missID, Layer: "core", Function: "g", Outcome: OutcomeMiss, DurationNs: 9_000_000})
	srv := httptest.NewServer(AdminHandler(tel, nil))
	defer srv.Close()

	decode := func(body string) (out struct {
		Recorded uint64 `json:"recorded"`
		Capacity int    `json:"capacity"`
		Spans    []Span `json:"spans"`
	}) {
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		return out
	}

	if _, body := getResp(t, srv, "/trace/spans"); len(decode(body).Spans) != 2 {
		t.Fatalf("unfiltered: %s", body)
	}
	if _, body := getResp(t, srv, "/trace/spans?fn=f"); len(decode(body).Spans) != 1 {
		t.Fatalf("fn filter: %s", body)
	}
	if _, body := getResp(t, srv, "/trace/spans?outcome=miss"); len(decode(body).Spans) != 1 {
		t.Fatalf("outcome filter: %s", body)
	}
	if _, body := getResp(t, srv, "/trace/spans?min=1ms"); len(decode(body).Spans) != 1 {
		t.Fatalf("min filter: %s", body)
	}
	if _, body := getResp(t, srv, "/trace/spans?trace="+hitID.String()); len(decode(body).Spans) != 1 {
		t.Fatalf("trace filter: %s", body)
	}
	if _, body := getResp(t, srv, "/trace/spans?n=1"); len(decode(body).Spans) != 1 {
		t.Fatalf("n cap: %s", body)
	}
	if out := decode(func() string { _, b := getResp(t, srv, "/trace/spans"); return b }()); out.Recorded != 2 || out.Capacity == 0 {
		t.Fatalf("counters: %+v", out)
	}
	if resp, _ := getResp(t, srv, "/trace/spans?min=bogus"); resp.StatusCode != 400 {
		t.Fatalf("bad min accepted: %d", resp.StatusCode)
	}
	if resp, _ := getResp(t, srv, "/trace/spans?trace=zzz"); resp.StatusCode != 400 {
		t.Fatalf("bad trace accepted: %d", resp.StatusCode)
	}
}

func TestDebugExplainEndpoint(t *testing.T) {
	tel := New()
	srvNoExplain := httptest.NewServer(AdminHandler(tel, nil))
	defer srvNoExplain.Close()
	if resp, _ := getResp(t, srvNoExplain, "/debug/explain?fn=f"); resp.StatusCode != 404 {
		t.Fatalf("explain without callback: %d, want 404", resp.StatusCode)
	}

	srv := httptest.NewServer(AdminHandlerConfig(tel, AdminConfig{
		Explain: func(fn string, n int) (any, error) {
			if fn == "missing" {
				return nil, fmt.Errorf("unknown function")
			}
			return map[string]any{"function": fn, "n": n}, nil
		},
	}))
	defer srv.Close()
	if resp, _ := getResp(t, srv, "/debug/explain"); resp.StatusCode != 400 {
		t.Fatalf("missing fn accepted: %d", resp.StatusCode)
	}
	if resp, _ := getResp(t, srv, "/debug/explain?fn=missing"); resp.StatusCode != 404 {
		t.Fatalf("unknown fn: %d, want 404", resp.StatusCode)
	}
	resp, body := getResp(t, srv, "/debug/explain?fn=f&n=5")
	if resp.StatusCode != 200 || !strings.Contains(body, `"n": 5`) {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
}

// /trace/spans must honour ?n= and keep the most recent spans.
func TestTraceEndpointCap(t *testing.T) {
	tel := New()
	for i := 1; i <= 10; i++ {
		tel.Spans.Record(Span{Trace: TraceID(i), Outcome: OutcomePut, DurationNs: int64(i)})
	}
	srv := httptest.NewServer(AdminHandler(tel, nil))
	defer srv.Close()
	_, body := getResp(t, srv, "/trace/spans?n=2")
	var out struct {
		Recorded uint64 `json:"recorded"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Recorded != 10 || len(out.Spans) != 2 || out.Spans[1].Trace != 10 {
		t.Fatalf("capped spans wrong: %+v", out)
	}
}

func TestAdminHandler(t *testing.T) {
	tel := New()
	tel.Registry.Counter("potluck_test_total", "test").Add(7)
	srv := httptest.NewServer(AdminHandler(tel, func() any {
		return map[string]any{"hello": "world"}
	}))
	defer srv.Close()

	if resp, body := getResp(t, srv, "/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "potluck_test_total 7") {
		t.Errorf("/metrics: code=%d body=%q", resp.StatusCode, body)
	}
	if resp, body := getResp(t, srv, "/stats"); resp.StatusCode != 200 || !strings.Contains(body, `"hello"`) {
		t.Errorf("/stats: code=%d body=%q", resp.StatusCode, body)
	}
	if resp, _ := getResp(t, srv, "/debug/pprof/cmdline"); resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", resp.StatusCode)
	}
	// The span recorder is the one record of decisions: the retired
	// event-ring endpoint must stay gone.
	for _, path := range []string{"/trace", "/nope"} {
		if resp, _ := getResp(t, srv, path); resp.StatusCode != 404 {
			t.Errorf("%s: code=%d, want 404", path, resp.StatusCode)
		}
	}
	if _, body := getResp(t, srv, "/"); strings.Contains(body, "/trace\n") {
		t.Errorf("index still lists /trace:\n%s", body)
	}
}

func TestAdminHandlerNilStats(t *testing.T) {
	tel := New()
	tel.Registry.Gauge("g", "g").Set(1)
	srv := httptest.NewServer(AdminHandler(tel, nil))
	defer srv.Close()
	_, body := getResp(t, srv, "/stats")
	var vals []SeriesValue
	if err := json.Unmarshal([]byte(body), &vals); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].Name != "g" {
		t.Fatalf("fallback stats wrong: %+v", vals)
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	tel := New()
	srv := httptest.NewServer(AdminHandlerConfig(tel, AdminConfig{
		WhatIf: func() any { return map[string]float64{"maxDivergence": 0.02} },
	}))
	defer srv.Close()
	resp, body := getResp(t, srv, "/whatif")
	if resp.StatusCode != 200 {
		t.Fatalf("/whatif status %d", resp.StatusCode)
	}
	var payload map[string]float64
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/whatif body not JSON: %v", err)
	}
	if payload["maxDivergence"] != 0.02 {
		t.Fatalf("/whatif payload: %v", payload)
	}

	// Without the callback the profiler is detached: 404, like
	// /debug/explain without its callback.
	bare := httptest.NewServer(AdminHandlerConfig(New(), AdminConfig{}))
	defer bare.Close()
	resp, _ = getResp(t, bare, "/whatif")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detached /whatif status %d, want 404", resp.StatusCode)
	}
}
