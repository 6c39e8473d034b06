package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

// TestConcurrentChaos hammers one cache from many goroutines mixing
// every public operation — lookups, puts, invalidations (by radius and
// of the whole function), snapshots, registrations, stats, purges —
// under capacity pressure and TTL churn.
// It asserts only invariants (no panics, no negative accounting,
// byte/entry consistency); run with -race for the full value.
func TestConcurrentChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := New(Config{
		Clock:       clk,
		DropoutRate: 0.05,
		Seed:        9,
		MaxEntries:  128,
		Tuner:       TunerConfig{WarmupZ: 20},
	})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 2}, KeyTypeSpec{Name: "b", Dim: 2}); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const opsPer = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPer; i++ {
				key := vec.Vector{rng.Float64() * 50, rng.Float64() * 50}
				switch rng.Intn(10) {
				case 0:
					if rng.Intn(8) == 0 {
						// Walks the entry table while puts publish.
						if _, err := c.InvalidateFunction("f"); err != nil {
							t.Error(err)
							return
						}
					} else {
						c.InvalidateRadius("f", "a", key, rng.Float64()*5)
					}
				case 1:
					c.CaptureState()
				case 2:
					clk.Advance(time.Duration(rng.Intn(100)) * time.Millisecond)
				case 3:
					c.Stats()
					c.PurgeExpired()
					// Concurrent registration: a fresh side function
					// (copy-on-write of the table) and a re-registration
					// of "f" adding nothing but resetting its tuners.
					if err := c.RegisterFunction(fmt.Sprintf("side-%d", g), KeyTypeSpec{Name: "a", Dim: 2}); err != nil {
						t.Error(err)
						return
					}
					if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 2}); err != nil {
						t.Error(err)
						return
					}
				case 4, 5, 6:
					if _, err := c.Lookup("f", "a", key); err != nil {
						t.Error(err)
						return
					}
				default:
					_, err := c.Put("f", PutRequest{
						Keys:  map[string]vec.Vector{"a": key, "b": {key[1], key[0]}},
						Value: g*opsPer + i,
						Cost:  time.Duration(rng.Intn(1000)) * time.Millisecond,
						TTL:   time.Duration(1+rng.Intn(60)) * time.Second,
						Size:  32,
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Entries < 0 || st.Bytes < 0 || st.Hits < 0 || st.Misses < 0 {
		t.Errorf("negative accounting: %+v", st)
	}
	if st.Entries > 128 {
		t.Errorf("capacity exceeded: %d entries", st.Entries)
	}
	if got := int64(st.Entries) * 32; st.Bytes != got {
		t.Errorf("bytes %d inconsistent with %d entries × 32", st.Bytes, st.Entries)
	}
	// The cache still works after the storm.
	key := vec.Vector{1, 1}
	if _, err := c.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"a": key}, Value: "final", Size: 32,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("f", "a", 0.001); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < 50 && !found; i++ { // dropout may skip a few
		res, err := c.Lookup("f", "a", key)
		if err != nil {
			t.Fatal(err)
		}
		found = res.Hit
	}
	if !found {
		t.Error("cache unusable after chaos")
	}
}
