package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

// memoKeys copies the keys the miss memo holds, slot by slot.
func memoKeys(ki *keyIndex) [memoSlots]vec.Vector {
	var out [memoSlots]vec.Vector
	for i := range ki.memo.slots {
		out[i] = ki.memo.slots[i].key.Clone()
	}
	return out
}

// TestKeyLengthDoor: every key of a key type has the length its first
// admitted put set (or its declared Dim). A lookup or put of another
// length, through every library entry point, is refused with an error
// wrapping vec.ErrDimensionMismatch before it touches anything: Stats,
// the tuner's puts, Len and the miss memo stay as they were. With every
// lookup set to drop out, a refused one rolls no dropout; with none, it
// probes no index.
func TestKeyLengthDoor(t *testing.T) {
	for i, cfg := range []Config{{DropoutRate: 1}, {DisableDropout: true}, {DropoutRate: 1}, {DisableDropout: true}} {
		declared := 2 * (i / 2)
		cfg.Clock = clock.NewVirtual(time.Unix(0, 0))
		c := New(cfg)
		extract := func(raw any) (vec.Vector, error) { return raw.(vec.Vector), nil }
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: declared, Extract: extract}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2}}, Value: "v"}); err != nil {
			t.Fatal(err)
		}
		ki, _ := c.keyIndexFor("f", "k")
		stats, tuner, memo := c.Stats(), ki.tuner.Stats(), memoKeys(ki)

		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, vec.ErrDimensionMismatch) {
				t.Errorf("declared %d: %s: err = %v, want ErrDimensionMismatch", declared, what, err)
			}
		}
		for _, key := range []vec.Vector{{1}, {1, 2, 3}} {
			_, err := c.Lookup("f", "k", key)
			refused("Lookup", err)
			_, err = c.LookupOpts("f", "k", key, LookupOptions{})
			refused("LookupOpts", err)
			_, err = c.LookupRefined("f", "k", key, func(v any, _, _ vec.Vector) any { return v })
			refused("LookupRefined", err)
			for _, r := range c.MultiLookupInto(nil, []BatchLookup{{Function: "f", KeyType: "k", Key: key}}) {
				refused("MultiLookupInto", r.Err)
			}
			_, err = c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": key}, Value: "w"})
			refused("Put", err)
			_, err = c.Put("f", PutRequest{Raw: key, Value: "w"})
			refused("Put (extracted)", err)
			for _, r := range c.MultiPut([]BatchPut{{Function: "f", Req: PutRequest{Keys: map[string]vec.Vector{"k": key}, Value: "w"}}}) {
				refused("MultiPut", r.Err)
			}
		}
		if got := c.Stats(); got != stats {
			t.Errorf("declared %d: Stats moved across refused ops: %+v, then %+v", declared, stats, got)
		}
		if got := ki.tuner.Stats(); got.Puts != tuner.Puts {
			t.Errorf("declared %d: tuner puts %d, then %d", declared, tuner.Puts, got.Puts)
		}
		if c.Len() != 1 || ki.idx.Len() != 1 {
			t.Errorf("declared %d: Len %d, index Len %d, want 1", declared, c.Len(), ki.idx.Len())
		}
		for i, key := range memoKeys(ki) {
			if !slices.Equal(key, memo[i]) {
				t.Errorf("declared %d: memo slot %d holds %v, was %v", declared, i, key, memo[i])
			}
		}
		// The key type's own length still passes.
		if _, err := c.Lookup("f", "k", vec.Vector{1, 2}); err != nil {
			t.Errorf("declared %d: Lookup of the key type's length: %v", declared, err)
		}
	}
}

// TestDeclaredDimRefusesTheFirstKey: a declared Dim is the length from
// the start; a first put of another length does not get to set it.
func TestDeclaredDimRefusesTheFirstKey(t *testing.T) {
	c := New(Config{DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2}}, Value: 1}); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Fatalf("first put of length 2 on Dim 3: err = %v", err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2, 3}}, Value: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstPutsRaceForTheLength: two goroutines race first puts of two
// lengths onto a key type with no declared Dim; exactly one length wins,
// the other put is refused, and the index holds only the winner.
func TestFirstPutsRaceForTheLength(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := New(Config{DisableDropout: true})
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}); err != nil {
			t.Fatal(err)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make([]error, 2)
		for i := range errs {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				_, errs[i] = c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": make(vec.Vector, 2+i)}, Value: i})
			}(i)
		}
		start.Done()
		done.Wait()
		won := 0
		for i, err := range errs {
			switch {
			case err == nil:
				won++
				ki, _ := c.keyIndexFor("f", "k")
				if w := ki.width.Load(); w != int64(2+i) {
					t.Fatalf("round %d: the %d-length put won, but the length is %d", round, 2+i, w)
				}
			case !errors.Is(err, vec.ErrDimensionMismatch):
				t.Fatalf("round %d: losing put: %v", round, err)
			}
		}
		if won != 1 || c.Len() != 1 {
			t.Fatalf("round %d: %d puts won, Len %d (errs %v)", round, won, c.Len(), errs)
		}
	}
}

// TestRestoreSkipsKeysOfAnotherLength: a hand-built state whose entries
// mix key lengths restores without error; the first length restored (or
// the declared Dim) wins, and every entry with no key of it counts as
// skipped.
func TestRestoreSkipsKeysOfAnotherLength(t *testing.T) {
	for _, tc := range []struct {
		dim           int
		entries, skip int
	}{
		{0, 3, 3}, // the first entry's length, 2, wins
		{3, 2, 4}, // the declared length wins
	} {
		state := &DurableState{Functions: []DurableFunction{{
			Name:     "f",
			KeyTypes: []DurableKeyType{{StoreKeyType: StoreKeyType{Name: "k", Metric: "euclidean", Index: "kdtree", Dim: tc.dim}}},
		}}}
		for i, key := range []vec.Vector{{1, 1}, {1, 2, 3}, {2, 2}, {1}, {3, 3}, {4, 5, 6}} {
			state.Entries = append(state.Entries, StoreEntry{
				ID: uint64(i + 1), Function: "f", Value: i, ExpiresAtNanos: time.Hour.Nanoseconds(),
				Keys: []StoreKey{{KeyType: "k", Key: key}},
			})
		}
		c := New(Config{DisableDropout: true, Clock: clock.NewVirtual(time.Unix(0, 0))})
		st, err := c.Restore(state)
		if err != nil {
			t.Fatalf("Dim %d: %v", tc.dim, err)
		}
		if st.Entries != tc.entries || st.Skipped != tc.skip || c.Len() != tc.entries {
			t.Errorf("Dim %d: restored %d, skipped %d, Len %d; want %d, %d, %d",
				tc.dim, st.Entries, st.Skipped, c.Len(), tc.entries, tc.skip, tc.entries)
		}
	}
}

// TestRegistrationBounds: RegisterFunction refuses a declared Dim past
// MaxKeyDim and more than MaxKeyTypes key types per function, in one
// call or across re-registrations, before it builds an index; refusing
// 2^20 key types allocates under 1 MiB.
func TestRegistrationBounds(t *testing.T) {
	c := New(Config{DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: MaxKeyDim + 1}); err == nil {
		t.Error("a Dim past MaxKeyDim registered")
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: MaxKeyDim}); err != nil {
		t.Errorf("Dim MaxKeyDim: %v", err)
	}
	specs := make([]KeyTypeSpec, 1<<20)
	for i := range specs[:MaxKeyTypes+1] {
		specs[i] = KeyTypeSpec{Name: string(rune('A' + i))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.RegisterFunction("g", specs...)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("2^20 key types registered")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing 2^20 key types allocated %d bytes", got)
	}
	if err := c.RegisterFunction("g", specs[:MaxKeyTypes+1]...); err == nil {
		t.Error("MaxKeyTypes+1 key types registered")
	}
	if err := c.RegisterFunction("g", specs[:MaxKeyTypes]...); err != nil {
		t.Fatalf("MaxKeyTypes key types: %v", err)
	}
	if err := c.RegisterFunction("g", specs[MaxKeyTypes]); err == nil {
		t.Error("a re-registration took g past MaxKeyTypes key types")
	}
	if _, err := c.keyIndexFor("g", specs[MaxKeyTypes].Name); !errors.Is(err, ErrUnknownKeyType) {
		t.Errorf("the refused key type is registered: %v", err)
	}
}
