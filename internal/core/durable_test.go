package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

// recordingStore captures the hook stream for order and content checks.
type recordingStore struct {
	registers []string
	puts      []StoreEntry
	deletes   []uint64
}

func (s *recordingStore) LogRegister(fn string, kts []StoreKeyType) {
	s.registers = append(s.registers, fn)
}
func (s *recordingStore) LogPut(rec StoreEntry) { s.puts = append(s.puts, rec) }
func (s *recordingStore) LogDelete(id uint64)   { s.deletes = append(s.deletes, id) }

func TestStoreHooks(t *testing.T) {
	rs := &recordingStore{}
	c, clk := newTestCache(t, func(cfg *Config) { cfg.Store = rs })
	registerScalar(t, c, "f")
	if len(rs.registers) != 1 || rs.registers[0] != "f" {
		t.Fatalf("registers = %v, want [f]", rs.registers)
	}

	id, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: "v", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.puts) != 1 {
		t.Fatalf("puts logged = %d, want 1", len(rs.puts))
	}
	rec := rs.puts[0]
	if rec.ID != uint64(id) || rec.Function != "f" || rec.Value != "v" {
		t.Errorf("logged put = %+v", rec)
	}
	wantExp := clk.Now().Add(time.Minute).UnixNano()
	if rec.ExpiresAtNanos != wantExp {
		t.Errorf("ExpiresAtNanos = %d, want %d (absolute deadline)", rec.ExpiresAtNanos, wantExp)
	}

	if _, err := c.InvalidateRadius("f", "scalar", vec.Vector{1}, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(rs.deletes) != 1 || rs.deletes[0] != uint64(id) {
		t.Fatalf("deletes = %v, want [%d]", rs.deletes, id)
	}

	// Expiration must NOT be logged: the absolute deadline in the put
	// record is authoritative at replay.
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: "w", TTL: time.Second})
	clk.Advance(2 * time.Second)
	c.PurgeExpired()
	if len(rs.deletes) != 1 {
		t.Errorf("expiration was logged as a delete: %v", rs.deletes)
	}
}

// populate fills a cache with n entries of distinct scalar keys, driving
// the tuner through warm-up and into live adjustments.
func populate(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"scalar": {float64(i)}},
			Value: fmt.Sprintf("v%d", i),
			Cost:  time.Duration(i+1) * time.Millisecond,
			Size:  64,
			TTL:   time.Hour,
			App:   "app",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	populate(t, c, 50)
	// Drive lookups so the per-series counters are non-zero.
	for i := 0; i < 20; i++ {
		if _, err := c.Lookup("f", "scalar", vec.Vector{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Lookup("f", "scalar", vec.Vector{1e9}) // a miss

	state := c.CaptureState()
	if len(state.Entries) != 50 {
		t.Fatalf("captured %d entries, want 50", len(state.Entries))
	}

	c2, _ := newTestCache(t)
	stats, err := c2.Restore(state)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 1 || stats.Entries != 50 || stats.Expired != 0 || stats.Skipped != 0 {
		t.Fatalf("restore stats = %+v", stats)
	}

	// Every entry is served again with its exact value.
	for i := 0; i < 50; i++ {
		res, err := c2.Lookup("f", "scalar", vec.Vector{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit || res.Value != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d: hit=%v value=%v", i, res.Hit, res.Value)
		}
	}

	// Tuner state and counters must match the capture exactly — the
	// lookups above changed c2's hit counters, so compare against a
	// fresh capture's function table instead.
	fs1 := c.FunctionStats()
	fs2 := c2.FunctionStats()
	if len(fs2) != 1 || len(fs2[0].KeyTypes) != 1 {
		t.Fatalf("function stats = %+v", fs2)
	}
	got, want := fs2[0].KeyTypes[0], fs1[0].KeyTypes[0]
	if got.Threshold != want.Threshold {
		t.Errorf("threshold = %v, want %v (exact)", got.Threshold, want.Threshold)
	}
	if fs2[0].Puts != fs1[0].Puts {
		t.Errorf("puts = %d, want %d", fs2[0].Puts, fs1[0].Puts)
	}
	st1 := c.CaptureState().Functions[0].KeyTypes[0]
	st2 := c2.CaptureState().Functions[0].KeyTypes[0]
	if !reflect.DeepEqual(st1.Tuner, st2.Tuner) {
		t.Errorf("tuner state drifted across restore:\n got %+v\nwant %+v", st2.Tuner, st1.Tuner)
	}

	t.Run("two functions, two key types each", captureRestoreKeys)
}

// captureRestoreKeys: each captured entry names the function it was put
// under and carries the keys it was put with, by key type in
// registration order, whether a put gave every key type or one, and
// whether a key was given or extracted; a restore captures the same.
func captureRestoreKeys(t *testing.T) {
	c, _ := newTestCache(t)
	double := func(raw any) (vec.Vector, error) {
		x := raw.(float64)
		return vec.Vector{x, 2 * x}, nil
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a"}, KeyTypeSpec{Name: "b", Extract: double}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("g", KeyTypeSpec{Name: "x"}, KeyTypeSpec{Name: "y"}); err != nil {
		t.Fatal(err)
	}
	puts := []struct {
		fn   string
		req  PutRequest
		want []StoreKey
	}{
		{"f", PutRequest{Keys: map[string]vec.Vector{"a": {1}, "b": {1, 10}}}, []StoreKey{{"a", vec.Vector{1}}, {"b", vec.Vector{1, 10}}}},
		{"f", PutRequest{Keys: map[string]vec.Vector{"a": {2}}}, []StoreKey{{"a", vec.Vector{2}}}},
		{"f", PutRequest{Keys: map[string]vec.Vector{"a": {3}}, Raw: 3.0}, []StoreKey{{"a", vec.Vector{3}}, {"b", vec.Vector{3, 6}}}},
		{"f", PutRequest{Raw: 4.0}, []StoreKey{{"b", vec.Vector{4, 8}}}},
		{"g", PutRequest{Keys: map[string]vec.Vector{"y": {5, 5, 5}}}, []StoreKey{{"y", vec.Vector{5, 5, 5}}}},
		{"g", PutRequest{Keys: map[string]vec.Vector{"y": {6, 6, 6}, "x": {6}}}, []StoreKey{{"x", vec.Vector{6}}, {"y", vec.Vector{6, 6, 6}}}},
	}
	want := map[uint64]StoreEntry{}
	for i, p := range puts {
		p.req.Value = i
		p.req.TTL = time.Hour
		id, err := c.Put(p.fn, p.req)
		if err != nil {
			t.Fatal(err)
		}
		want[uint64(id)] = StoreEntry{Function: p.fn, Keys: p.want}
	}
	check := func(which string, state *DurableState) {
		t.Helper()
		if len(state.Entries) != len(want) {
			t.Fatalf("%s: captured %d entries, want %d", which, len(state.Entries), len(want))
		}
		for _, got := range state.Entries {
			w, ok := want[got.ID]
			if !ok || got.Function != w.Function || !reflect.DeepEqual(got.Keys, w.Keys) {
				t.Errorf("%s: entry %d has function %q and keys %v, want %q and %v", which, got.ID, got.Function, got.Keys, w.Function, w.Keys)
			}
		}
	}
	state := c.CaptureState()
	check("captured", state)
	c2, _ := newTestCache(t)
	if stats, err := c2.Restore(state); err != nil || stats.Entries != len(want) {
		t.Fatalf("restore: %+v, %v", stats, err)
	}
	check("restored", c2.CaptureState())
}

func TestRestoreDropsExpired(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: "short", TTL: time.Minute})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: "long", TTL: time.Hour})
	state := c.CaptureState()

	// The restored process boots five minutes later: the one-minute
	// entry's absolute deadline has passed while "down".
	clk2 := clock.NewVirtual(time.Unix(0, 0).Add(5 * time.Minute))
	c2 := New(Config{Clock: clk2, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
	stats, err := c2.Restore(state)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 1 || stats.Expired != 1 {
		t.Fatalf("restore stats = %+v, want 1 restored / 1 expired", stats)
	}
	if res, _ := c2.Lookup("f", "scalar", vec.Vector{1}); res.Hit {
		t.Error("expired entry served after restore")
	}
	if res, _ := c2.Lookup("f", "scalar", vec.Vector{2}); !res.Hit || res.Value != "long" {
		t.Error("unexpired entry lost in restore")
	}
}

func TestRestoreIDWatermark(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	populate(t, c, 10)
	state := c.CaptureState()

	c2, _ := newTestCache(t)
	if _, err := c2.Restore(state); err != nil {
		t.Fatal(err)
	}
	id, err := c2.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {99}}, Value: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(id) <= state.MaxID {
		t.Errorf("new ID %d not past restored watermark %d — log replay would alias", id, state.MaxID)
	}
}

func TestRestoreDoesNotRelog(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	populate(t, c, 5)
	state := c.CaptureState()

	rs := &recordingStore{}
	c2, _ := newTestCache(t, func(cfg *Config) { cfg.Store = rs })
	if _, err := c2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if len(rs.registers) != 0 || len(rs.puts) != 0 {
		t.Errorf("restore re-logged its own replay: %d registers, %d puts", len(rs.registers), len(rs.puts))
	}
	// A restore-time register must still reset on the NEXT capture if it
	// were logged — covered by the store package; here only assert the
	// hooks resume for live traffic after restore.
	c2.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {100}}, Value: "live"})
	if len(rs.puts) != 1 {
		t.Errorf("live put after restore not logged (%d records)", len(rs.puts))
	}
}

func TestCaptureSkipsUnserializable(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: make(chan int)})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: "ok"})
	state := c.CaptureState()
	if state.Skipped != 1 || len(state.Entries) != 1 {
		t.Errorf("skipped=%d entries=%d, want 1/1", state.Skipped, len(state.Entries))
	}
}
