package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRadiusBasics(t *testing.T) {
	for _, kind := range allKinds() {
		idx, _ := New(kind, vec.EuclideanMetric{}, 1)
		for i := 0; i <= 10; i++ {
			idx.Insert(ID(i), vec.Vector{float64(i)})
		}
		got := Radius(idx, vec.Vector{5}, 2.0)
		if kind == KindLSH {
			// LSH range search is approximate: a non-empty subset of
			// {3,4,5,6,7} containing the exact match is acceptable.
			if len(got) == 0 || got[0].ID != 5 {
				t.Errorf("lsh: Radius = %v, want the exact match first", got)
			}
			for _, n := range got {
				if n.ID < 3 || n.ID > 7 {
					t.Errorf("lsh: out-of-radius result %v", n)
				}
			}
			continue
		}
		if len(got) != 5 { // 3,4,5,6,7
			t.Errorf("%s: Radius returned %d results, want 5: %v", kind, len(got), got)
			continue
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Errorf("%s: results out of order", kind)
			}
		}
		if got[0].ID != 5 {
			t.Errorf("%s: closest = %v", kind, got[0])
		}
		if n := Radius(idx, vec.Vector{100}, 1.0); len(n) != 0 {
			t.Errorf("%s: far query returned %v", kind, n)
		}
	}
}

// Property: for exact structures, Radius agrees with brute force.
func TestRadiusAgreesWithLinearProperty(t *testing.T) {
	f := func(seed int64, nRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		r := float64(rRaw%40) / 4
		lin := NewLinear(vec.EuclideanMetric{})
		kd := NewKDTree(vec.EuclideanMetric{})
		lsh := NewLSH(vec.EuclideanMetric{}, DefaultLSHConfig())
		for i := 0; i < n; i++ {
			v := randomVec(rng, 3)
			lin.Insert(ID(i), v)
			kd.Insert(ID(i), v)
			lsh.Insert(ID(i), v)
		}
		q := randomVec(rng, 3)
		want := lin.Radius(q, r)
		gotKD := kd.Radius(q, r)
		if len(gotKD) != len(want) {
			return false
		}
		for i := range want {
			if want[i].ID != gotKD[i].ID {
				return false
			}
		}
		// LSH radius results must be a subset of the exact set (bucket
		// probing can miss; it must not invent).
		wantSet := make(map[ID]bool, len(want))
		for _, w := range want {
			wantSet[w.ID] = true
		}
		for _, g := range lsh.Radius(q, r) {
			if !wantSet[g.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRadiusAfterRemovals(t *testing.T) {
	kd := NewKDTree(vec.EuclideanMetric{})
	for i := 0; i < 20; i++ {
		kd.Insert(ID(i), vec.Vector{float64(i), 0})
	}
	for i := 0; i < 20; i += 2 {
		kd.Remove(ID(i))
	}
	got := kd.Radius(vec.Vector{10, 0}, 3)
	for _, n := range got {
		if n.ID%2 == 0 {
			t.Errorf("removed entry %d returned", n.ID)
		}
	}
	// Surviving odd ids within distance 3 of x=10: 7, 9, 11, 13.
	if len(got) != 4 {
		t.Errorf("Radius after removals = %v, want 4 entries", got)
	}
}
