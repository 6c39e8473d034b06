package core

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// newTracedCache builds a cache with a telemetry hub attached, ready for
// span assertions.
func newTracedCache(t *testing.T, mutate ...func(*Config)) (*Cache, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	cfg := Config{
		Telemetry:      tel,
		DisableDropout: true,
		Tuner:          TunerConfig{WarmupZ: 1},
		Seed:           42,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c := New(cfg)
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "scalar"}); err != nil {
		t.Fatal(err)
	}
	return c, tel
}

// A forced trace ID must always produce a detailed core span — stages,
// probe counts, tuner snapshot — regardless of sampling.
func TestLookupForcedTraceRecordsDetailedSpan(t *testing.T) {
	c, tel := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 1.0)

	id := telemetry.NewTraceID()
	res, err := c.LookupOpts("f", "scalar", vec.Vector{0.5}, LookupOptions{Trace: id})
	if err != nil || !res.Hit {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	if res.Trace != id {
		t.Fatalf("result trace = %s, want %s", res.Trace, id)
	}
	spans := tel.Spans.Find(id)
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Layer != "core" || sp.Outcome != telemetry.OutcomeHit || sp.Function != "f" || sp.KeyType != "scalar" {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Distance != 0.5 || sp.Threshold != 1.0 {
		t.Fatalf("decision fields: distance=%v threshold=%v", sp.Distance, sp.Threshold)
	}
	if sp.Probes < 0 {
		t.Fatalf("probe count unmeasured on a linear index: %+v", sp)
	}
	if sp.Tuner == nil {
		t.Fatal("tuner snapshot missing on forced-trace span")
	}
	var names []string
	for _, st := range sp.Stages {
		names = append(names, st.Name)
	}
	got := strings.Join(names, ",")
	if !strings.Contains(got, telemetry.StageProbe) || !strings.Contains(got, telemetry.StageDecide) {
		t.Fatalf("stages = %v, want probe+decide", names)
	}
}

// Misses are retained even unsampled (they are the interesting case),
// and a forced trace adds the detail.
func TestLookupMissAlwaysRetained(t *testing.T) {
	c, tel := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 1)
	res, err := c.Lookup("f", "scalar", vec.Vector{3}) // beyond T, within 4·T
	if err != nil || res.Hit {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	if res.Trace == 0 {
		t.Fatal("miss did not mint a trace id")
	}
	spans := tel.Spans.Find(res.Trace)
	if len(spans) != 1 || spans[0].Outcome != telemetry.OutcomeMiss {
		t.Fatalf("miss span: %+v", spans)
	}
	if spans[0].Distance != 3 || spans[0].Threshold != 1 {
		t.Fatalf("miss decision fields: %+v", spans[0])
	}
}

func TestLookupErrorSpanRetained(t *testing.T) {
	c, tel := newTracedCache(t)
	if _, err := c.Lookup("f", "bogus", vec.Vector{1}); err == nil {
		t.Fatal("unknown key type accepted")
	}
	spans := tel.Spans.Snapshot(telemetry.SpanFilter{Outcome: telemetry.OutcomeError})
	if len(spans) != 1 || spans[0].Function != "f" || spans[0].Err == "" {
		t.Fatalf("error span: %+v", spans)
	}
}

func TestDropoutSpanRetained(t *testing.T) {
	c, tel := newTracedCache(t, func(cfg *Config) {
		cfg.DisableDropout = false
		cfg.DropoutRate = 1.0 // every lookup drops out
	})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	res, err := c.Lookup("f", "scalar", vec.Vector{0})
	if err != nil || !res.Dropout {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	spans := tel.Spans.Find(res.Trace)
	if len(spans) != 1 || spans[0].Outcome != telemetry.OutcomeDropout {
		t.Fatalf("dropout span: %+v", spans)
	}
	if roll := spans[0].DropoutRoll; roll < 0 || roll >= 1 {
		t.Fatalf("dropout roll = %v, want [0,1)", roll)
	}
	if spans[0].DropoutRate != 1.0 {
		t.Fatalf("dropout rate = %v", spans[0].DropoutRate)
	}
}

// A traced put records the full pipeline: resolve, tune, insert, admit.
func TestPutForcedTraceRecordsStages(t *testing.T) {
	c, tel := newTracedCache(t)
	id := telemetry.NewTraceID()
	if _, err := c.Put("f", PutRequest{
		Keys:  map[string]vec.Vector{"scalar": {1}},
		Value: 1,
		Trace: id,
	}); err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans.Find(id)
	if len(spans) != 1 || spans[0].Outcome != telemetry.OutcomePut {
		t.Fatalf("put span: %+v", spans)
	}
	want := []string{telemetry.StageResolve, telemetry.StageTune, telemetry.StageInsert, telemetry.StageAdmit}
	if len(spans[0].Stages) != len(want) {
		t.Fatalf("put stages = %+v, want %v", spans[0].Stages, want)
	}
	for i, st := range spans[0].Stages {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, st.Name, want[i])
		}
	}
}

func TestPutErrorSpanRetained(t *testing.T) {
	c, tel := newTracedCache(t)
	if _, err := c.Put("nope", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1}); err == nil {
		t.Fatal("unknown function accepted")
	}
	spans := tel.Spans.Snapshot(telemetry.SpanFilter{Outcome: telemetry.OutcomeError})
	if len(spans) != 1 || spans[0].Function != "nope" {
		t.Fatalf("put error span: %+v", spans)
	}
}

// The acceptance scenario: a forced near-threshold miss must render
// "distance D > threshold T" in the explain surface, with the flip
// condition.
func TestExplainNearThresholdMiss(t *testing.T) {
	c, _ := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 0.2)
	id := telemetry.NewTraceID()
	res, err := c.LookupOpts("f", "scalar", vec.Vector{0.5}, LookupOptions{Trace: id})
	if err != nil || res.Hit {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	rep, err := c.Explain("f", 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Function != "f" || rep.Recorded < 1 || len(rep.Decisions) < 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	d := rep.Decisions[0] // newest first: our miss
	if d.Trace != id || d.Outcome != telemetry.OutcomeMiss {
		t.Fatalf("top decision: %+v", d)
	}
	if !strings.Contains(d.Flip, "distance 0.5 > threshold 0.2") {
		t.Fatalf("flip text missing the comparison: %q", d.Flip)
	}
	if !strings.Contains(d.Flip, "a threshold above 0.5 would have made this a hit") {
		t.Fatalf("flip text missing the flip condition: %q", d.Flip)
	}
	if len(rep.KeyTypes) != 1 || rep.KeyTypes[0].Tuner.Threshold != 0.2 {
		t.Fatalf("key type context: %+v", rep.KeyTypes)
	}
}

// Beyond the search radius a miss and the put after it report no
// neighbour (distance -1), and explain says the bound, not an empty index.
func TestExplainBoundedMiss(t *testing.T) {
	c, _ := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 0.1)
	res, err := c.LookupOpts("f", "scalar", vec.Vector{5}, LookupOptions{Trace: telemetry.NewTraceID()})
	if err != nil || res.Hit || res.Distance != -1 {
		t.Fatalf("lookup beyond 4·T: %+v %v, want a miss at distance -1", res, err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {5}}, Value: 1, Trace: telemetry.NewTraceID()}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Explain("f", 2)
	if err != nil || len(rep.Decisions) != 2 {
		t.Fatalf("report: %+v %v", rep, err)
	}
	for i, want := range []string{"put: no entry within 4·T = 0.4 (threshold 0.1)", "miss: no entry within 4·T = 0.4 (threshold 0.1)"} {
		if d := rep.Decisions[i]; d.Distance != -1 || !strings.HasPrefix(d.Flip, want) {
			t.Errorf("decision %d: distance %v, flip %q; want -1 and %q", i, d.Distance, d.Flip, want)
		}
	}
	if ts, _ := c.TunerStats("f", "scalar"); ts.Threshold != 0.1 || ts.Loosenings != 0 {
		t.Errorf("a put with no neighbour within 4·T moved the tuner: %+v", ts)
	}
}

func TestExplainErrors(t *testing.T) {
	c, _ := newTracedCache(t)
	if _, err := c.Explain("nope", 5); err == nil {
		t.Fatal("unknown function accepted")
	}
	bare := New(Config{DisableDropout: true})
	bare.RegisterFunction("f", KeyTypeSpec{Name: "scalar"})
	if _, err := bare.Explain("f", 5); err == nil {
		t.Fatal("explain without telemetry accepted")
	}
}

// A trace_id scraped off a /metrics exemplar line must resolve to a
// retained span — the whole point of exemplars.
func TestMetricsExemplarResolvesToRetainedSpan(t *testing.T) {
	c, tel := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 1.0)
	id := telemetry.NewTraceID()
	if res, err := c.LookupOpts("f", "scalar", vec.Vector{0.25}, LookupOptions{Trace: id}); err != nil || !res.Hit {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`# exemplar potluck_lookup_latency_seconds_bucket\{[^}]*\} trace_id=([0-9a-f]{16})`)
	m := re.FindStringSubmatch(b.String())
	if m == nil {
		t.Fatalf("no lookup-latency exemplar in exposition:\n%s", b.String())
	}
	scraped, err := telemetry.ParseTraceID(m[1])
	if err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans.Find(scraped)
	if len(spans) == 0 {
		t.Fatalf("exemplar trace %s does not resolve to a retained span", scraped)
	}
	if spans[0].Trace != id {
		t.Fatalf("exemplar resolved to %s, want %s", spans[0].Trace, id)
	}
}

// Refine runs inside the traced lookup and shows up as its own stage.
func TestRefineStageTraced(t *testing.T) {
	c, tel := newTracedCache(t)
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	c.ForceThreshold("f", "scalar", 1.0)
	id := telemetry.NewTraceID()
	res, err := c.LookupOpts("f", "scalar", vec.Vector{0.5}, LookupOptions{
		Trace: id,
		Refine: func(cachedValue any, cachedKey, queryKey vec.Vector) any {
			time.Sleep(time.Millisecond)
			return cachedValue
		},
	})
	if err != nil || !res.Hit {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	spans := tel.Spans.Find(id)
	if len(spans) != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	var refine *telemetry.SpanStage
	for i := range spans[0].Stages {
		if spans[0].Stages[i].Name == telemetry.StageRefine {
			refine = &spans[0].Stages[i]
		}
	}
	if refine == nil {
		t.Fatalf("no refine stage in %+v", spans[0].Stages)
	}
	if refine.DurationNs < int64(time.Millisecond)/2 {
		t.Fatalf("refine stage too fast to be real: %+v", refine)
	}
}
