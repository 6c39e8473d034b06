package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/vec"
)

// Regression tests for latent bugs fixed alongside the sharded-locking
// rework. Each test documents the pre-fix failure mode.

// TestRegisterFunctionAtomicity: a RegisterFunction call with an invalid
// spec must leave no partial state. Previously the function table was
// mutated spec by spec, so an error midway left earlier specs registered
// (and for a brand-new function, the function itself).
func TestRegisterFunctionAtomicity(t *testing.T) {
	c := New(Config{DisableDropout: true})
	bad := KeyTypeSpec{Name: "bad", Index: index.Kind("bogus")}

	// A failed first registration must not create the function.
	if err := c.RegisterFunction("g", KeyTypeSpec{Name: "a", Dim: 1}, bad); err == nil {
		t.Fatal("registration with invalid index kind succeeded")
	}
	_, err := c.Put("g", PutRequest{Keys: map[string]vec.Vector{"a": {1}}, Value: 1})
	if !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("partially registered function survived a failed RegisterFunction: err=%v", err)
	}

	// A failed re-registration must not add any of the new key types...
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("f", "a", 7.5); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "b", Dim: 1}, bad); err == nil {
		t.Fatal("re-registration with invalid index kind succeeded")
	}
	if _, err := c.Lookup("f", "b", vec.Vector{1}); !errors.Is(err, ErrUnknownKeyType) {
		t.Errorf("failed re-registration leaked key type %q: err=%v", "b", err)
	}
	// ...and must not have touched the existing tuners.
	ts, err := c.TunerStats("f", "a")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Threshold != 7.5 || !ts.Active {
		t.Errorf("failed re-registration disturbed tuner state: %+v", ts)
	}
}

// TestExpiryHeapBoundedUnderChurn: entries removed by eviction used to
// leave their expiry-heap items behind until the (distant) TTL arrived,
// so a small cache under churn grew an unbounded heap. Removal now
// deletes the entry's own heap items, so the heaps hold exactly the
// live entries.
func TestExpiryHeapBoundedUnderChurn(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := New(Config{Clock: clk, MaxEntries: 4, DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		_, err := c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"k": {float64(i)}},
			Value: i,
			TTL:   time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	checkHeaps(t, c)
}

// TestEmptyKeyRejected: a zero-dimension key used to crash the KD-tree
// (divide by zero choosing the split axis) and was silently accepted by
// the other index kinds. Now Put rejects it up front with a typed error
// for every index kind.
func TestEmptyKeyRejected(t *testing.T) {
	kinds := []index.Kind{index.KindLinear, index.KindKDTree, index.KindLSH, index.KindTreeMap, index.KindHash}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			c := New(Config{DisableDropout: true})
			if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Index: kind, Dim: 2}); err != nil {
				t.Fatal(err)
			}
			_, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {}}, Value: 1})
			if !errors.Is(err, ErrEmptyKey) {
				t.Errorf("Put with empty key: err = %v, want ErrEmptyKey", err)
			}
			// An empty key produced by an extractor is caught too.
			if err := c.RegisterFunction("g", KeyTypeSpec{
				Name: "k", Index: kind, Dim: 2,
				Extract: func(any) (vec.Vector, error) { return vec.Vector{}, nil },
			}); err != nil {
				t.Fatal(err)
			}
			_, err = c.Put("g", PutRequest{Raw: "x", Value: 1})
			if !errors.Is(err, ErrEmptyKey) {
				t.Errorf("Put with empty extracted key: err = %v, want ErrEmptyKey", err)
			}
		})
	}
}

// TestConfigNormalization: out-of-range settings are clamped instead of
// producing undefined behaviour (dropout probabilities above 1, negative
// capacities, negative LookupK).
func TestConfigNormalization(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want func(Config) error
	}{
		{"dropout above 1 clamps", Config{DropoutRate: 1.5}, func(c Config) error {
			if c.DropoutRate != 1 {
				return fmt.Errorf("DropoutRate = %v, want 1", c.DropoutRate)
			}
			return nil
		}},
		{"dropout zero means default", Config{}, func(c Config) error {
			if c.DropoutRate != DefaultDropoutRate {
				return fmt.Errorf("DropoutRate = %v, want %v", c.DropoutRate, DefaultDropoutRate)
			}
			return nil
		}},
		{"disable dropout wins", Config{DropoutRate: 0.5, DisableDropout: true}, func(c Config) error {
			if c.DropoutRate != 0 {
				return fmt.Errorf("DropoutRate = %v, want 0", c.DropoutRate)
			}
			return nil
		}},
		{"negative capacities mean unlimited", Config{MaxEntries: -3, MaxBytes: -1}, func(c Config) error {
			if c.MaxEntries != 0 || c.MaxBytes != 0 {
				return fmt.Errorf("MaxEntries=%d MaxBytes=%d, want 0, 0", c.MaxEntries, c.MaxBytes)
			}
			return nil
		}},
		{"negative LookupK means default", Config{LookupK: -4}, func(c Config) error {
			if c.LookupK != 0 {
				return fmt.Errorf("LookupK = %d, want 0", c.LookupK)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.in)
			if err := tc.want(c.EffectiveConfig()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNegativeLookupKWorks exercises a lookup under a negative LookupK,
// which used to reach the kNN path with a nonsensical k.
func TestNegativeLookupKWorks(t *testing.T) {
	c := New(Config{LookupK: -2, DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1}}, Value: 42}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("f", "k", 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := c.Lookup("f", "k", vec.Vector{1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Value != 42 {
		t.Errorf("lookup under negative LookupK: hit=%v value=%v", res.Hit, res.Value)
	}
}
