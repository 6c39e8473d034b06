package core

import (
	"testing"

	"repro/internal/vec"
)

func TestInvalidateRadius(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	for i := 0; i < 10; i++ {
		c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {float64(i)}}, Value: i})
	}
	c.ForceThreshold("f", "scalar", 0.1)
	n, err := c.InvalidateRadius("f", "scalar", vec.Vector{5}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // keys 4, 5, 6
		t.Fatalf("invalidated %d entries, want 3", n)
	}
	for i := 0; i < 10; i++ {
		res, _ := c.Lookup("f", "scalar", vec.Vector{float64(i)})
		wantHit := i < 4 || i > 6
		if res.Hit != wantHit {
			t.Errorf("key %d: hit=%v want %v", i, res.Hit, wantHit)
		}
	}
	if st := c.Stats(); st.Invalidations != 3 {
		t.Errorf("Invalidations = %d", st.Invalidations)
	}
	if _, err := c.InvalidateRadius("f", "scalar", vec.Vector{0}, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := c.InvalidateRadius("nope", "scalar", vec.Vector{0}, 1); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestInvalidateRadiusPropagatesAcrossKeyTypes(t *testing.T) {
	c, _ := newTestCache(t)
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a"}, KeyTypeSpec{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": {1}, "b": {100}}, Value: "v"})
	if _, err := c.InvalidateRadius("f", "a", vec.Vector{1}, 0.5); err != nil {
		t.Fatal(err)
	}
	// The entry must be gone from the OTHER index too.
	if res, _ := c.Lookup("f", "b", vec.Vector{100}); res.Hit {
		t.Error("invalidated entry still reachable via key type b")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestInvalidateFunction(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	registerScalar(t, c, "g")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: 2})
	c.Put("g", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 3})
	c.ForceThreshold("f", "scalar", 9)

	n, err := c.InvalidateFunction("f")
	if err != nil || n != 2 {
		t.Fatalf("InvalidateFunction = %d, %v", n, err)
	}
	if res, _ := c.Lookup("f", "scalar", vec.Vector{1}); res.Hit {
		t.Error("f entry survived")
	}
	// Other functions untouched.
	if res, _ := c.Lookup("g", "scalar", vec.Vector{1}); !res.Hit {
		t.Error("g entry was dropped")
	}
	// Thresholds reset (the function's semantics may have changed).
	st, _ := c.TunerStats("f", "scalar")
	if st.Active || st.Threshold != 0 {
		t.Errorf("tuner not reset: %+v", st)
	}
	if _, err := c.InvalidateFunction("nope"); err == nil {
		t.Error("unknown function accepted")
	}

	// A re-registration that adds a key type: entries put before it and
	// after it, under the old key type, the new one or both, all belong
	// to g and go with it; f's new entry stays.
	if err := c.RegisterFunction("g", KeyTypeSpec{Name: "scalar"}, KeyTypeSpec{Name: "extra"}); err != nil {
		t.Fatal(err)
	}
	c.Put("g", PutRequest{Keys: map[string]vec.Vector{"scalar": {5}, "extra": {50}}, Value: 4})
	c.Put("g", PutRequest{Keys: map[string]vec.Vector{"extra": {60}}, Value: 5})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 6})
	if n, err := c.InvalidateFunction("g"); err != nil || n != 3 {
		t.Fatalf("InvalidateFunction(g) after adding a key type = %d, %v; want 3", n, err)
	}
	for kt, key := range map[string]vec.Vector{"scalar": {1}, "extra": {60}} {
		if res, _ := c.Lookup("g", kt, key); res.Hit {
			t.Errorf("g entry survived under %s", kt)
		}
	}
	if res, _ := c.Lookup("f", "scalar", vec.Vector{1}); !res.Hit || res.Value != 6 {
		t.Errorf("f entry: hit %v on %v, want a hit on 6", res.Hit, res.Value)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}
