package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// TestTelemetryCounterCoherence drives the cache concurrently and then
// checks the telemetry invariants the subsystem guarantees:
//
//  1. per series, hits + misses + dropouts == lookups issued;
//  2. the per-function series sum to the global Stats() counters;
//  3. each latency histogram's count is the exact sampled fraction of
//     the series' non-dropout lookups: every (latSampleMask+1)-th hit
//     and miss is observed, so count == hits/4 + misses/4.
//
// Run under -race this doubles as the telemetry wiring's race test.
func TestTelemetryCounterCoherence(t *testing.T) {
	tel := telemetry.New()
	c := New(Config{Telemetry: tel, Seed: 7})
	fns := []string{"recog", "depth"}
	for _, fn := range fns {
		if err := c.RegisterFunction(fn,
			KeyTypeSpec{Name: "feat"},
			KeyTypeSpec{Name: "pose"},
		); err != nil {
			t.Fatal(err)
		}
	}

	const (
		workers          = 8
		lookupsPerWorker = 2000
		putsPerWorker    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := fns[w%len(fns)]
			for i := 0; i < putsPerWorker; i++ {
				key := vec.Vector{float64(i), float64(w)}
				_, err := c.Put(fn, PutRequest{
					Keys:  map[string]vec.Vector{"feat": key, "pose": key},
					Value: fmt.Sprintf("%s-%d-%d", fn, w, i),
					Cost:  time.Millisecond,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < lookupsPerWorker; i++ {
				kt := "feat"
				if i%2 == 1 {
					kt = "pose"
				}
				key := vec.Vector{float64(i % 60), float64(w)}
				if _, err := c.Lookup(fn, kt, key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	stats := c.Stats()
	perFn := c.FunctionStats()

	// Invariant 2: series sum to global Stats. Stats.Misses folds
	// dropouts back in (historic semantics), per-series misses do not.
	var hits, misses, dropouts, puts int64
	for _, fs := range perFn {
		puts += fs.Puts
		for _, ks := range fs.KeyTypes {
			hits += ks.Hits
			misses += ks.Misses
			dropouts += ks.Dropouts

			// Invariant 1: outcome counts partition the lookups issued
			// against this series.
			lookups := ks.Hits + ks.Misses + ks.Dropouts
			want := int64(workers / len(fns) * lookupsPerWorker / 2)
			if lookups != want {
				t.Errorf("%s/%s: hits+misses+dropouts = %d, want %d lookups",
					fs.Function, ks.KeyType, lookups, want)
			}

			// Invariant 3: histogram count == the sampled share of
			// non-dropout lookups (1 in latSampleMask+1 of each
			// outcome, by counter value — exact, not probabilistic).
			if ks.Latency == nil {
				t.Fatalf("%s/%s: no latency summary with telemetry attached", fs.Function, ks.KeyType)
			}
			want64 := ks.Hits/(latSampleMask+1) + ks.Misses/(latSampleMask+1)
			if got := int64(ks.Latency.Count); got != want64 {
				t.Errorf("%s/%s: histogram count = %d, want hits/4+misses/4 = %d",
					fs.Function, ks.KeyType, got, want64)
			}
		}
	}
	if hits != stats.Hits {
		t.Errorf("series hits sum %d != Stats.Hits %d", hits, stats.Hits)
	}
	if dropouts != stats.Dropouts {
		t.Errorf("series dropouts sum %d != Stats.Dropouts %d", dropouts, stats.Dropouts)
	}
	if misses+dropouts != stats.Misses {
		t.Errorf("series misses+dropouts %d != Stats.Misses %d", misses+dropouts, stats.Misses)
	}
	if puts != stats.Puts {
		t.Errorf("series puts sum %d != Stats.Puts %d", puts, stats.Puts)
	}
	if total := hits + misses + dropouts; total != int64(workers*lookupsPerWorker) {
		t.Errorf("total outcomes %d != %d lookups issued", total, workers*lookupsPerWorker)
	}

	// The registry's func-backed series must agree with the cache and
	// the exposition must carry the per-function counters and gauges
	// the admin endpoint promises.
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`potluck_lookups_total{function="recog",keytype="feat",result="hit"}`,
		`potluck_lookups_total{function="depth",keytype="pose",result="miss"}`,
		`potluck_tuner_threshold{function="recog",keytype="feat"}`,
		`potluck_index_queries_total{function="recog",keytype="feat",kind="kdtree"}`,
		`potluck_lookup_latency_seconds_count{function="recog",keytype="feat"}`,
		"potluck_cache_entries",
		"potluck_puts_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// Every miss and dropout records a span; sampled hits and puts add
	// more on top.
	if got, min := tel.Spans.Len(), uint64(misses+dropouts); got < min {
		t.Errorf("span recorder holds %d spans, want >= %d (one per miss and dropout)", got, min)
	}
}

// TestTelemetryReRegistrationKeepsCounts pins the copy-on-write
// carry-over: re-registering a function must not reset its series.
func TestTelemetryReRegistrationKeepsCounts(t *testing.T) {
	c := New(Config{DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"k": {1}}, Value: "v",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("f", "k", vec.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}, KeyTypeSpec{Name: "k2"}); err != nil {
		t.Fatal(err)
	}
	fs := c.FunctionStats()
	if len(fs) != 1 || fs[0].Puts != 1 {
		t.Fatalf("puts lost across re-registration: %+v", fs)
	}
	if len(fs[0].KeyTypes) != 2 || fs[0].KeyTypes[0].Hits != 1 {
		t.Fatalf("key-type series lost across re-registration: %+v", fs[0].KeyTypes)
	}
	if s := c.Stats(); s.Hits != 1 || s.Puts != 1 {
		t.Fatalf("Stats lost counts across re-registration: %+v", s)
	}
}
