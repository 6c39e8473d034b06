package store

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// benchDir builds a data directory holding n logged entries and returns
// it. The log is closed so the benchmark measures a cold open.
func benchDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	l, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	c, _ := newBenchCache(l)
	if err := c.RegisterFunction("f", core.KeyTypeSpec{Name: "scalar"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Put("f", core.PutRequest{
			Keys:  map[string]vec.Vector{"scalar": {float64(i)}},
			Value: fmt.Sprintf("v%d", i),
			Cost:  time.Millisecond,
			Size:  64,
			TTL:   24 * time.Hour,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func newBenchCache(s core.Store) (*core.Cache, struct{}) {
	return core.New(core.Config{
		Store:          s,
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	}), struct{}{}
}

// BenchmarkRecovery times a full boot recovery — open, replay, restore
// into a fresh cache — at several store sizes. bench.sh records the
// 10000-entry series into BENCH_core.json as the recovery-time figure.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			dir := benchDir(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(Config{Dir: dir, Fsync: FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				state, _, err := l.Recover()
				if err != nil {
					b.Fatal(err)
				}
				c, _ := newBenchCache(l)
				st, err := c.Restore(state)
				if err != nil {
					b.Fatal(err)
				}
				if st.Entries != n {
					b.Fatalf("recovered %d entries, want %d", st.Entries, n)
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogAppend times the raw logging hook, the marginal cost a
// durable put adds before fsync policy effects.
func BenchmarkLogAppend(b *testing.B) {
	l, err := Open(Config{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := core.StoreEntry{
		ID: 1, Function: "f", App: "app", CostNanos: 1e6, Size: 64,
		AccessCount: 1, InsertedAtNanos: 1, LastAccessNanos: 1,
		ExpiresAtNanos: 1 << 62,
		Keys:           []core.StoreKey{{KeyType: "scalar", Key: vec.Vector{1, 2, 3, 4}}},
		Value:          "value",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ID = uint64(i + 1)
		l.LogPut(rec)
	}
}

// BenchmarkSnapshotRoundTrip measures single-file persistence for 1000
// entries with 16-dim keys: capture, encode and publish with SaveFile,
// then decode and re-admit into a fresh cache with LoadFile.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	const n = 1000
	src, _ := newBenchCache(nil)
	if err := src.RegisterFunction("f", core.KeyTypeSpec{Name: "k", Dim: 16}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := make(vec.Vector, 16)
		for d := range key {
			key[d] = float64(i*16 + d)
		}
		if _, err := src.Put("f", core.PutRequest{
			Keys: map[string]vec.Vector{"k": key}, Value: fmt.Sprintf("v%d", i),
			Cost: time.Millisecond, TTL: 24 * time.Hour,
		}); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "cache.snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveFile(src, path); err != nil {
			b.Fatal(err)
		}
		dst, _ := newBenchCache(nil)
		st, err := LoadFile(dst, path)
		if err != nil {
			b.Fatal(err)
		}
		if st.Entries != n {
			b.Fatalf("loaded %d entries, want %d", st.Entries, n)
		}
	}
}
