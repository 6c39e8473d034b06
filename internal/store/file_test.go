package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// saveLoad carries src through one snapshot file into dst.
func saveLoad(t *testing.T, src, dst *core.Cache) core.RestoreStats {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := SaveFile(src, path); err != nil {
		t.Fatal(err)
	}
	st, err := LoadFile(dst, path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, _ := newCache(nil, time.Unix(0, 0))
	register(t, src)
	src.Put("f", core.PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: "alpha",
		Cost: 2 * time.Second, App: "app-a", TTL: time.Hour,
	})
	src.Put("f", core.PutRequest{
		Keys: map[string]vec.Vector{"scalar": {2}}, Value: int64(42),
		Cost: time.Second, TTL: time.Hour,
	})
	// Accumulate accesses so importance state is non-trivial.
	src.Lookup("f", "scalar", vec.Vector{1})
	src.Lookup("f", "scalar", vec.Vector{1})
	src.ForceThreshold("f", "scalar", 0.5)

	dst, _ := newCache(nil, time.Unix(0, 0))
	rs := saveLoad(t, src, dst)
	if rs.Entries != 2 || rs.Functions != 1 || rs.Expired != 0 || rs.Skipped != 0 {
		t.Fatalf("load stats = %+v", rs)
	}
	// Entries restored with values, costs and access counts.
	res, err := dst.Lookup("f", "scalar", vec.Vector{1})
	if err != nil || !res.Hit || res.Value != "alpha" {
		t.Fatalf("restored lookup: %+v, %v", res, err)
	}
	if res.Entry.Cost() != 2*time.Second {
		t.Errorf("restored cost = %v", res.Entry.Cost())
	}
	if res.Entry.AccessCount() != 4 { // 1 put + 2 hits + this hit
		t.Errorf("restored access count = %d, want 4", res.Entry.AccessCount())
	}
	if res.Entry.App() != "app-a" {
		t.Errorf("restored app = %q", res.Entry.App())
	}
	// Threshold restored.
	st, _ := dst.TunerStats("f", "scalar")
	if !st.Active || st.Threshold != 0.5 {
		t.Errorf("restored tuner = %+v", st)
	}
	// Approximate hits work against restored indices.
	res, _ = dst.Lookup("f", "scalar", vec.Vector{2.2})
	if !res.Hit || res.Value != int64(42) {
		t.Errorf("approximate restored lookup = %+v", res)
	}
}

func TestSnapshotMultiKeyType(t *testing.T) {
	src, _ := newCache(nil, time.Unix(0, 0))
	err := src.RegisterFunction("f",
		core.KeyTypeSpec{Name: "a"},
		core.KeyTypeSpec{Name: "b", Index: "lsh", Dim: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	src.Put("f", core.PutRequest{
		Keys: map[string]vec.Vector{
			"a": {1, 2},
			"b": {3, 4},
		},
		Value: "multi", TTL: time.Hour,
	})
	dst, _ := newCache(nil, time.Unix(0, 0))
	saveLoad(t, src, dst)
	if res, _ := dst.Lookup("f", "a", vec.Vector{1, 2}); !res.Hit {
		t.Error("key type a not restored")
	}
	if res, _ := dst.Lookup("f", "b", vec.Vector{3, 4}); !res.Hit {
		t.Error("key type b not restored")
	}
	if dst.Len() != 1 {
		t.Errorf("Len = %d, want 1 (single value, two indices)", dst.Len())
	}
}

// Property: for any random population, capture → file → load → Restore
// preserves every lookup outcome (same hits, same values) at the same
// threshold.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		threshold := float64(thRaw%20) / 4
		mk := func() *core.Cache {
			c, _ := newCache(nil, time.Unix(0, 0))
			if err := c.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Dim: 2}); err != nil {
				t.Fatal(err)
			}
			return c
		}
		src := mk()
		for i := 0; i < n; i++ {
			_, err := src.Put("f", core.PutRequest{
				Keys:  map[string]vec.Vector{"k": {rng.Float64() * 10, rng.Float64() * 10}},
				Value: int64(i),
				Cost:  time.Duration(rng.Intn(1000)) * time.Millisecond,
				TTL:   time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := src.ForceThreshold("f", "k", threshold); err != nil {
			t.Fatal(err)
		}
		dst := mk()
		saveLoad(t, src, dst)
		if dst.Len() != src.Len() {
			return false
		}
		for q := 0; q < 20; q++ {
			query := vec.Vector{rng.Float64() * 10, rng.Float64() * 10}
			a, err := src.Lookup("f", "k", query)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dst.Lookup("f", "k", query)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hit != b.Hit {
				return false
			}
			if a.Hit && a.Value != b.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotGarbageInput: a file that is not a snapshot, and no file
// at all, are errors that leave the cache as it was.
func TestSnapshotGarbageInput(t *testing.T) {
	dst, _ := newCache(nil, time.Unix(0, 0))
	register(t, dst)
	put(t, dst, 1, "kept")
	path := filepath.Join(t.TempDir(), "cache.snap")
	if _, err := LoadFile(dst, path); err == nil {
		t.Error("missing snapshot file accepted")
	}
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(dst, path); err == nil {
		t.Error("garbage snapshot accepted")
	}
	wantHit(t, dst, 1, "kept")
	if dst.Len() != 1 {
		t.Errorf("Len = %d after rejected loads, want 1", dst.Len())
	}
}
