package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

func benchCache(b *testing.B, entries, dim int) (*Cache, []vec.Vector) {
	b.Helper()
	cache := New(Config{
		Clock:          clock.NewVirtual(time.Unix(0, 0)),
		DisableDropout: true,
		Tuner:          TunerConfig{WarmupZ: 1},
	})
	if err := cache.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]vec.Vector, entries)
	for i := range keys {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		keys[i] = v
		if _, err := cache.Put("f", PutRequest{
			Keys: map[string]vec.Vector{"k": v}, Value: i, Cost: time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
		b.Fatal(err)
	}
	return cache, keys
}

// BenchmarkLookupHit measures the full lookup path (lock, purge, kNN,
// importance update) at several cache sizes.
func BenchmarkLookupHit(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			cache, keys := benchCache(b, n, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Lookup("f", "k", keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupMiss measures the miss path (no entry within threshold).
func BenchmarkLookupMiss(b *testing.B) {
	cache, _ := benchCache(b, 1000, 16)
	if err := cache.ForceThreshold("f", "k", 1e-12); err != nil {
		b.Fatal(err)
	}
	far := make(vec.Vector, 16)
	far[0] = 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Lookup("f", "k", far); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutWithEviction measures puts against a full cache, where
// every insertion selects and evicts a victim. The capacities span the
// range where a per-victim table walk would show (256 fits in cache;
// 65536 does not), for each policy. Setup fills the cache and then
// churns it by 2.5x its capacity with one hit per put, so the timed
// region sees an aged victim heap: stale keys to re-score under
// importance and lru, none under fifo and random.
func BenchmarkPutWithEviction(b *testing.B) {
	for _, capacity := range []int{256, 4096, 65536} {
		for _, pol := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyFIFO, PolicyRandom} {
			b.Run(fmt.Sprintf("cap-%d/%s", capacity, pol), func(b *testing.B) {
				clk := clock.NewVirtual(time.Unix(0, 0))
				cache := New(Config{
					Clock:          clk,
					DisableDropout: true,
					Tuner:          TunerConfig{WarmupZ: 1},
					MaxEntries:     capacity,
					Policy:         pol,
				})
				if err := cache.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 4}); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(2))
				recent := make([]vec.Vector, capacity)
				step := func(i int) {
					clk.Advance(time.Microsecond)
					key := vec.Vector{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
					if _, err := cache.Put("f", PutRequest{
						Keys: map[string]vec.Vector{"k": key}, Value: i,
						Cost: time.Duration(1+rng.Intn(8)) * time.Millisecond,
					}); err != nil {
						b.Fatal(err)
					}
					recent[i%capacity] = key
					if _, err := cache.Lookup("f", "k", recent[rng.Intn(min(i+1, capacity))]); err != nil {
						b.Fatal(err)
					}
				}
				aged := capacity + capacity*5/2
				for i := 0; i < aged; i++ {
					step(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(aged + i)
				}
			})
		}
	}
}
