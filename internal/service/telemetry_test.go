package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// TestServerInstrumented drives an instrumented server end to end and
// checks the exposition: per-op request counters and latency histogram
// counts must match the requests issued, and every op family must be
// present from the first scrape (the CI smoke test scrapes a daemon
// that has served nothing yet).
func TestServerInstrumented(t *testing.T) {
	tel := telemetry.New()
	cache := core.New(testConfig())
	srv := NewServer(cache)
	srv.Instrument(tel)

	// Pre-traffic scrape: every op's series must already be shaped.
	out := scrape(t, tel)
	for _, op := range opNames {
		for _, want := range []string{
			fmt.Sprintf(`potluck_server_requests_total{op=%q,result="ok"} 0`, op),
			fmt.Sprintf(`potluck_server_request_latency_seconds_count{op=%q} 0`, op),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("pre-traffic exposition missing %q", want)
			}
		}
	}

	sock := filepath.Join(t.TempDir(), "potluck.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	defer func() {
		cancel()
		srv.Close()
		<-done
	}()

	client, err := Dial("unix", sock, "lens")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(tel)

	if err := client.Register("recog", KeyTypeDef{Name: "feat", Metric: "euclidean"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Put("recog", map[string]vec.Vector{"feat": {1, 2}}, []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	const lookups = 5
	for i := 0; i < lookups; i++ {
		if _, err := client.Lookup("recog", "feat", vec.Vector{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	// An unregistered function is a served request with an error result.
	if _, err := client.Lookup("nosuch", "feat", vec.Vector{1}); err == nil {
		t.Fatal("lookup of unregistered function succeeded")
	}

	out = scrape(t, tel)
	for _, want := range []string{
		`potluck_server_requests_total{op="register",result="ok"} 1`,
		`potluck_server_requests_total{op="put",result="ok"} 1`,
		fmt.Sprintf(`potluck_server_requests_total{op="lookup",result="ok"} %d`, lookups),
		`potluck_server_requests_total{op="lookup",result="error"} 1`,
		`potluck_server_requests_total{op="stats",result="ok"} 1`,
		fmt.Sprintf(`potluck_server_request_latency_seconds_count{op="lookup"} %d`, lookups+1),
		`potluck_server_open_conns 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	st := srv.AdminStats(time.Now().Add(-time.Second))
	if st.Hits != lookups || st.Puts != 1 {
		t.Errorf("AdminStats hits=%d puts=%d, want %d/1", st.Hits, st.Puts, lookups)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if len(st.Functions) != 1 || st.Functions[0].Function != "recog" {
		t.Errorf("AdminStats functions = %+v", st.Functions)
	}
}

func scrape(t *testing.T, tel *telemetry.Telemetry) string {
	t.Helper()
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestLogLimiter pins the token bucket: a burst passes, the flood is
// suppressed and counted, and the count is surfaced on the next line
// that gets through after refill.
func TestLogLimiter(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLogLimiter(3, 1, func() time.Time { return now })
	for i := 0; i < 3; i++ {
		if ok, sup := l.allow("k"); !ok || sup != 0 {
			t.Fatalf("burst line %d: ok=%v sup=%d", i, ok, sup)
		}
	}
	for i := 0; i < 10; i++ {
		if ok, _ := l.allow("k"); ok {
			t.Fatalf("flood line %d passed the exhausted bucket", i)
		}
	}
	// An unrelated key has its own bucket.
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("independent key was limited")
	}
	now = now.Add(2 * time.Second) // refill 2 tokens
	ok, sup := l.allow("k")
	if !ok || sup != 10 {
		t.Fatalf("after refill: ok=%v suppressed=%d, want true/10", ok, sup)
	}
	if ok, sup := l.allow("k"); !ok || sup != 0 {
		t.Fatalf("second refilled token: ok=%v sup=%d", ok, sup)
	}
	if ok, _ := l.allow("k"); ok {
		t.Fatal("third line passed a 2-token refill")
	}
}

// TestServerLogfLimited checks the server-side plumbing: suppressed
// lines increment the telemetry counter and the pass-through line
// carries the suppression notice.
func TestServerLogfLimited(t *testing.T) {
	tel := telemetry.New()
	srv := NewServer(core.New(testConfig()))
	srv.Instrument(tel)
	now := time.Unix(0, 0)
	srv.limiter = newLogLimiter(1, 1, func() time.Time { return now })
	var lines []string
	srv.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for i := 0; i < 4; i++ {
		srv.logfLimited("oversize", "boom %d", i)
	}
	now = now.Add(time.Second)
	srv.logfLimited("oversize", "boom again")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), lines)
	}
	if lines[0] != "boom 0" {
		t.Errorf("first line = %q", lines[0])
	}
	if want := "boom again (3 similar lines suppressed)"; lines[1] != want {
		t.Errorf("second line = %q, want %q", lines[1], want)
	}
	if got := srv.met.suppressedLogs.Value(); got != 3 {
		t.Errorf("suppressed counter = %d, want 3", got)
	}
}

// TestBreakerNotify walks the breaker through its full cycle and checks
// each transition is delivered exactly once, in order.
func TestBreakerNotify(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(2, time.Second, func() time.Time { return now })
	var transitions []string
	b.SetNotify(func(from, to string) {
		transitions = append(transitions, from+">"+to)
	})

	fail := errors.New("remote down")
	b.Allow()
	b.Report(fail)
	b.Allow()
	b.Report(fail) // second failure trips it: closed>open
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() { // cooldown over: open>half-open, probe admitted
		t.Fatal("half-open breaker refused the probe")
	}
	b.Report(fail) // probe failed: half-open>open
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.Report(nil) // probe succeeded: half-open>closed

	want := []string{
		"closed>open",
		"open>half-open",
		"half-open>open",
		"open>half-open",
		"half-open>closed",
	}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
	if got := b.State(); got != BreakerClosed {
		t.Errorf("final state = %q", got)
	}
}

// TestTieredInstrumented checks the breaker wiring: transitions reach
// the counter vec and the open-state gauge.
func TestTieredInstrumented(t *testing.T) {
	tel := telemetry.New()
	tiered := &Tiered{Local: core.New(testConfig()), FailureThreshold: 1, Cooldown: time.Hour}
	tiered.Instrument(tel)

	br := tiered.breaker()
	br.Allow()
	br.Report(errors.New("down")) // closed>open

	out := scrape(t, tel)
	for _, want := range []string{
		`potluck_breaker_transitions_total{to="open"} 1`,
		`potluck_breaker_open 1`,
		`potluck_remote_errors_total 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
