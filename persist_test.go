package potluck_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	potluck "repro"
	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/store"
)

// persistCache returns a deterministic cache on clk with function "f"
// registered, optionally logging to s.
func persistCache(t *testing.T, clk *clock.Virtual, s *store.Log) *potluck.Cache {
	t.Helper()
	cfg := potluck.Config{Clock: clk, DisableDropout: true, Tuner: potluck.TunerConfig{WarmupZ: 1}}
	if s != nil {
		cfg.Store = s
	}
	c := potluck.New(cfg)
	if err := c.RegisterFunction("f", potluck.KeyTypeSpec{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func persistPut(t *testing.T, c *potluck.Cache, k float64, ttl time.Duration) {
	t.Helper()
	if _, err := c.Put("f", potluck.PutRequest{
		Keys: map[string]potluck.Vector{"k": {k}}, Value: fmt.Sprint("v", k), Cost: time.Millisecond, TTL: ttl,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadFileDropsExpired is the regression for the TTL rebasing
// that left with the gob snapshot: a file carries absolute deadlines, so
// an entry that expired before the save is not written, one whose
// deadline passed while the process was "down" is counted Expired and
// never served, and a survivor still expires at its original deadline.
func TestSaveLoadFileDropsExpired(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	src := persistCache(t, clk, nil)
	persistPut(t, src, 100, time.Second)
	clk.Advance(2 * time.Second) // key 100 is dead before the save
	for k := 0; k < 10; k++ {
		persistPut(t, src, float64(k), time.Minute)
	}
	persistPut(t, src, 50, 2*time.Hour)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := potluck.SaveFile(src, path); err != nil {
		t.Fatal(err)
	}

	// An hour of downtime: the ten one-minute entries are 59 minutes
	// past their deadline when the file is loaded.
	clk2 := clock.NewVirtual(clk.Now().Add(time.Hour))
	dst := persistCache(t, clk2, nil)
	st, err := potluck.LoadFile(dst, path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Expired != 10 || st.Skipped != 0 {
		t.Fatalf("load stats = %+v, want 1 entry, 10 expired (the pre-save expiry never reached the file)", st)
	}
	for _, k := range []float64{0, 9, 100} {
		if res, _ := dst.Lookup("f", "k", potluck.Vector{k}); res.Hit {
			t.Errorf("key %v served %v past its deadline", k, clk2.Now().Sub(res.Entry.ExpiresAt()))
		}
	}
	if res, _ := dst.Lookup("f", "k", potluck.Vector{50}); !res.Hit || res.Value != "v50" {
		t.Fatalf("unexpired entry lost: %+v", res)
	}
	// 2h TTL, 1h spent down: the deadline is one hour away, not two.
	clk2.Advance(59 * time.Minute)
	if res, _ := dst.Lookup("f", "k", potluck.Vector{50}); !res.Hit {
		t.Error("entry expired before its deadline after a load")
	}
	clk2.Advance(2 * time.Minute)
	if res, _ := dst.Lookup("f", "k", potluck.Vector{50}); res.Hit {
		t.Error("entry outlived its absolute deadline after a load")
	}
}

// TestLoadFileIdempotent is the regression for the double admission of
// the gob path (every entry again under a fresh ID, re-logged to the
// store): loading a file twice, or into a cache already recovered from a
// store.Log holding the same entries, changes nothing.
func TestLoadFileIdempotent(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	dir := t.TempDir()
	open := func() *store.Log {
		l, err := store.Open(store.Config{Dir: filepath.Join(dir, "data"), Fsync: store.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	srcLog := open()
	src := persistCache(t, clk, srcLog)
	for k := 0; k < 10; k++ {
		persistPut(t, src, float64(k), time.Hour)
	}
	src.Lookup("f", "k", potluck.Vector{3})
	// The log's own snapshot carries the counters a bare replay would
	// not, so recovery and the file agree on Stats as well as entries.
	if _, err := srcLog.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cache.snap")
	if err := potluck.SaveFile(src, path); err != nil {
		t.Fatal(err)
	}

	unchanged := func(t *testing.T, c *potluck.Cache, load func()) {
		t.Helper()
		n, before := c.Len(), c.Stats()
		load()
		if c.Len() != n || c.Stats() != before {
			t.Errorf("load changed the cache: Len %d → %d, stats %+v → %+v", n, c.Len(), before, c.Stats())
		}
	}

	t.Run("same file twice", func(t *testing.T) {
		dst := persistCache(t, clk, nil)
		if st, err := potluck.LoadFile(dst, path); err != nil || st.Entries != 10 {
			t.Fatalf("first load: %+v, %v", st, err)
		}
		unchanged(t, dst, func() {
			if st, err := potluck.LoadFile(dst, path); err != nil || st.Entries != 0 || st.Skipped != 10 {
				t.Fatalf("second load: %+v, %v", st, err)
			}
		})
	})

	t.Run("after log recovery", func(t *testing.T) {
		// src's log is abandoned unclosed, as a crash would leave it.
		l := open()
		state, _, err := l.Recover()
		if err != nil {
			t.Fatal(err)
		}
		dst := persistCache(t, clk, l)
		if st, err := dst.Restore(state); err != nil || st.Entries != 10 {
			t.Fatalf("recovery: %+v, %v", st, err)
		}
		appends := l.Stats().Appends
		unchanged(t, dst, func() {
			if st, err := potluck.LoadFile(dst, path); err != nil || st.Entries != 0 || st.Skipped != 10 {
				t.Fatalf("load over recovered cache: %+v, %v", st, err)
			}
		})
		if got := l.Stats().Appends; got != appends {
			t.Errorf("load re-logged %d records to the store", got-appends)
		}
	})
}

// TestReusedKeyBufferChangesNothing: a caller that puts a key and then
// reuses its array for another key changes nothing the cache holds. The
// live cache, the re-rank of a product-quantized index (which resolves
// keys it no longer keeps uncompressed from the cache's own copy) and a
// file saved and loaded back all still know the key as it was put. The
// hnsw-pq case trains its codebooks after 8 puts and keeps 1 key
// uncompressed, so the reused key is re-ranked through that copy.
func TestReusedKeyBufferChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		index   potluck.Config
		spec    potluck.KeyTypeSpec
		fillers int
	}{
		{spec: potluck.KeyTypeSpec{Name: "k", Index: potluck.IndexKDTree}},
		{
			index:   potluck.Config{IndexOptions: index.Options{PQ: index.PQConfig{TrainSize: 8, KeepRecent: 1}}},
			spec:    potluck.KeyTypeSpec{Name: "k", Index: potluck.IndexHNSWPQ},
			fillers: 16,
		},
	} {
		clk := clock.NewVirtual(time.Unix(1000, 0))
		newCache := func() *potluck.Cache {
			cfg := tc.index
			cfg.Clock, cfg.DisableDropout = clk, true
			c := potluck.New(cfg)
			if err := c.RegisterFunction("f", tc.spec); err != nil {
				t.Fatal(err)
			}
			return c
		}
		src := newCache()
		buf := potluck.Vector{1, 1}
		if _, err := src.Put("f", potluck.PutRequest{Keys: map[string]potluck.Vector{"k": buf}, Value: "one"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.fillers; i++ {
			filler := potluck.Vector{float64(-10 * (i + 1)), float64(10 * (i + 1))}
			if _, err := src.Put("f", potluck.PutRequest{Keys: map[string]potluck.Vector{"k": filler}, Value: i}); err != nil {
				t.Fatal(err)
			}
		}
		buf[0], buf[1] = 1000, 1000

		check := func(which string, c *potluck.Cache) {
			t.Helper()
			res, err := c.Lookup("f", "k", potluck.Vector{1, 1})
			if err != nil || !res.Hit || res.Value != "one" || res.Distance != 0 {
				t.Errorf("%s, %s cache: the key as put: hit %v on %v at distance %v (err %v); want a hit on one at 0",
					tc.spec.Index, which, res.Hit, res.Value, res.Distance, err)
			}
			if res, _ := c.Lookup("f", "k", potluck.Vector{1000, 1000}); res.Hit || res.Distance == 0 {
				t.Errorf("%s, %s cache: the reused buffer's new key: hit %v on %v at distance %v; want a miss",
					tc.spec.Index, which, res.Hit, res.Value, res.Distance)
			}
		}
		check("live", src)
		path := filepath.Join(t.TempDir(), "cache.snap")
		if err := potluck.SaveFile(src, path); err != nil {
			t.Fatal(err)
		}
		dst := newCache()
		if _, err := potluck.LoadFile(dst, path); err != nil {
			t.Fatal(err)
		}
		check("loaded", dst)
	}
}
