package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeConfig builds the real daemon once into a directory the test owns.
func smokeConfig(t *testing.T) config {
	t.Helper()
	// Relative and short: a Unix socket path holds 108 bytes at most.
	workdir := filepath.Join(".bench_build", "test")
	t.Cleanup(func() { os.RemoveAll(workdir) })
	bin, err := buildDaemon(workdir)
	if err != nil {
		t.Fatal(err)
	}
	return config{daemonBin: bin, workdir: workdir, outDir: t.TempDir(), seed: 5, seconds: 1, small: true}
}

// TestSmoke runs all four workloads end to end against a real child
// daemon with small inputs, and the traced run of one of them.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for _, w := range allWorkloads() {
		res, err := runOne(cfg, w, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		// /proc counts CPU in ticks of 10 ms. A one-second window of a few
		// frames under the race detector can leave the daemon below one.
		coarse := "end-to-end metric daemon_cpu_us_per_op is zero"
		for _, v := range res.violated {
			if v != coarse {
				t.Errorf("%s: check violated: %s", w.name(), v)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(res.jsonLine(), &line); err != nil {
			t.Fatalf("%s: result line: %v", w.name(), err)
		}
		if line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.name(), line)
		}
		for _, d := range endToEnd {
			if m := line.Metrics[d.name]; (m.Value <= 0 && d.name != "daemon_cpu_us_per_op") || m.Unit != d.unit {
				t.Errorf("%s: %s = %v %q, want a positive number of %s", w.name(), d.name, m.Value, m.Unit, d.unit)
			}
		}
	}
	if children.m != nil && len(children.m) != 0 {
		t.Errorf("%d daemons were left running", len(children.m))
	}

	w := workloadByName("write-evict")
	res, err := runOne(cfg, w, true)
	if err != nil {
		t.Fatalf("traced %s: %v", w.name(), err)
	}
	if !res.correct {
		t.Errorf("traced %s: checks violated: %v", w.name(), res.violated)
	}
	for _, d := range perLayer() {
		if _, ok := res.m.v[d.name]; !ok {
			t.Errorf("traced run did not measure %s", d.name)
		}
	}
	if res.m.v["e2e.acked_lost"] != 0 || res.m.v["e2e.recovery_s"] <= 0 {
		t.Errorf("durability phase: acked_lost %v, recovery_s %v", res.m.v["e2e.acked_lost"], res.m.v["e2e.recovery_s"])
	}
	if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-write-evict.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
	entries, err := os.ReadDir(cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("run directory %s was not removed", e.Name())
		}
	}
}
