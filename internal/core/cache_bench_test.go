package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
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

// BenchmarkVisionShape is app-vision's core shape in process: a feed of
// 768-dim keys (a downsampled 16×16 frame) in scenes of 32 frames that
// pan slowly around a centre, labelled by scene, replayed; every fifth
// frame of a scene is novel instead, a key far from every other with a
// label of its own, so that about one frame in five misses and puts, as
// in app-vision. The cache holds 32 entries under LRU, dropout off; a
// frame is a lookup and, on a miss, a put of its label, which evicts.
// One op is one frame. It runs on the k-d tree, the workload's index,
// and on the linear scan; hits/op is the share of frames served from
// the cache once the tuner has warmed up.
func BenchmarkVisionShape(b *testing.B) {
	const dim, capacity, scenes, perScene = 768, 32, 24, 32
	rng := rand.New(rand.NewSource(1))
	feed := make([]vec.Vector, 0, scenes*perScene)
	for s := 0; s < scenes; s++ {
		centre, pan := make(vec.Vector, dim), make(vec.Vector, dim)
		for d := range centre {
			centre[d], pan[d] = rng.Float64(), rng.NormFloat64()*0.01
		}
		for j := 0; j < perScene; j++ {
			key := make(vec.Vector, dim)
			for d := range key {
				key[d] = centre[d] + float64(pan[d]*float64(j)) + float64(rng.NormFloat64()*0.01)
				if j%5 == 4 {
					key[d] = rng.Float64()
				}
			}
			feed = append(feed, key)
		}
	}
	for _, kind := range []index.Kind{index.KindKDTree, index.KindLinear} {
		b.Run(string(kind), func(b *testing.B) {
			clk := clock.NewVirtual(time.Unix(0, 0))
			cache := New(Config{Clock: clk, MaxEntries: capacity, Policy: PolicyLRU, DisableDropout: true})
			if err := cache.RegisterFunction("f", KeyTypeSpec{Name: "downsamp", Index: kind, Dim: dim}); err != nil {
				b.Fatal(err)
			}
			hits := 0
			frame := func(i int) {
				clk.Advance(time.Millisecond)
				pos := i % len(feed)
				res, err := cache.Lookup("f", "downsamp", feed[pos])
				if err != nil {
					b.Fatal(err)
				}
				if res.Hit {
					hits++
					return
				}
				label := pos / perScene
				if pos%perScene%5 == 4 {
					label = -1 - pos
				}
				if _, err := cache.Put("f", PutRequest{Keys: map[string]vec.Vector{"downsamp": feed[pos]}, Value: label, Cost: 8 * time.Millisecond}); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2*len(feed); i++ {
				frame(i)
			}
			hits = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame(i)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
