package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/vec"
)

// annOptions sizes training thresholds below the workload so IVF cells
// and PQ codebooks train before the crash — recovery must rebuild the
// TRAINED structures, not fall back to the exact pre-training regime.
func annOptions() index.Options {
	return index.Options{
		IVF: index.IVFConfig{TrainAfter: 256},
		PQ:  index.PQConfig{TrainSize: 128},
	}
}

func newANNCache(s core.Store, kind index.Kind, at time.Time) (*core.Cache, *clock.Virtual) {
	clk := clock.NewVirtual(at)
	c := core.New(core.Config{
		Clock:          clk,
		Store:          s,
		DisableDropout: true,
		// Warm-up never completes, pinning the threshold at zero (exact
		// match only) on both sides of the crash: hit/miss outcomes then
		// depend only on the rebuilt index, not on tuner history (which
		// a pure log replay legitimately does not carry).
		Tuner:        core.TunerConfig{WarmupZ: 1 << 30},
		IndexOptions: annOptions(),
	})
	if err := c.RegisterFunction("f", core.KeyTypeSpec{Name: "feat", Index: kind, Dim: 8}); err != nil {
		panic(err)
	}
	return c, clk
}

// annKeys generates the seeded put-only workload: for such a log, replay
// order (entries sorted by ID) equals the original admission order, so
// seeded index construction rebuilds the identical structure.
func annKeys(n int) []vec.Vector {
	rng := rand.New(rand.NewSource(83))
	keys := make([]vec.Vector, n)
	for i := range keys {
		v := make(vec.Vector, 8)
		for d := range v {
			v[d] = rng.NormFloat64() * 20
		}
		keys[i] = v
	}
	return keys
}

// TestANNKindsCrashRecovery: register a function over each sub-linear
// index kind, run a put-only workload past the training thresholds,
// crash (abandon the log un-Closed; FsyncAlways makes every record
// durable), recover via the segment-log path, and require the rebuilt
// index to answer identically: every stored key is found exactly with
// its own value, and two independent recoveries agree with each other
// probe-for-probe. No graph or codebook is serialized — determinism
// comes from seeded construction plus ID-ordered replay.
func TestANNKindsCrashRecovery(t *testing.T) {
	const n = 600
	for _, kind := range []index.Kind{index.KindHNSW, index.KindIVF, index.KindHNSWPQ} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			l := openTest(t, dir)
			c, _ := newANNCache(l, kind, time.Unix(0, 0))
			keys := annKeys(n)
			for i, k := range keys {
				if _, err := c.Put("f", core.PutRequest{
					Keys:  map[string]vec.Vector{"feat": k},
					Value: fmt.Sprintf("v%d", i),
					Size:  64, TTL: time.Hour,
				}); err != nil {
					t.Fatal(err)
				}
			}
			preStats := probeAll(t, c, keys)

			// Crash: abandon l without Close, recover into a fresh cache.
			l2 := openTest(t, dir)
			state, rstats, err := l2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Entries != n {
				t.Fatalf("recovered %d entries, want %d", rstats.Entries, n)
			}
			c2, _ := newANNCache(l2, kind, time.Unix(0, 0).Add(time.Minute))
			if _, err := c2.Restore(state); err != nil {
				t.Fatal(err)
			}
			postStats := probeAll(t, c2, keys)
			if preStats != postStats {
				t.Fatalf("rebuilt index answers differ from pre-crash:\n got %+v\nwant %+v", postStats, preStats)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			// A second independent recovery must agree probe-for-probe —
			// the determinism contract behind skipping graph snapshots.
			l3 := openTest(t, dir)
			state3, _, err := l3.Recover()
			if err != nil {
				t.Fatal(err)
			}
			c3, _ := newANNCache(l3, kind, time.Unix(0, 0).Add(time.Minute))
			if _, err := c3.Restore(state3); err != nil {
				t.Fatal(err)
			}
			if again := probeAll(t, c3, keys); again != postStats {
				t.Fatalf("two recoveries disagree:\n got %+v\nwant %+v", again, postStats)
			}
			if err := l3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// probeResult summarizes a fixed probe workload so index states can be
// compared across a crash.
type probeResult struct {
	hits      int
	valueSum  int
	missCount int
}

// probeAll looks up every stored key exactly (threshold zero: a hit
// requires the index to surface the key's own entry at distance 0) plus
// a band of perturbed queries that must miss under the zero threshold.
func probeAll(t *testing.T, c *core.Cache, keys []vec.Vector) probeResult {
	t.Helper()
	var pr probeResult
	for i, k := range keys {
		res, err := c.Lookup("f", "feat", k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit {
			pr.hits++
			if res.Value == fmt.Sprintf("v%d", i) {
				pr.valueSum += i
			}
		}
	}
	if pr.hits != len(keys) {
		t.Fatalf("only %d/%d exact keys were found by the index", pr.hits, len(keys))
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 50; q++ {
		k := keys[rng.Intn(len(keys))].Clone()
		for d := range k {
			k[d] += rng.NormFloat64()
		}
		res, err := c.Lookup("f", "feat", k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit {
			pr.missCount++
		}
	}
	return pr
}
