package index

import (
	"testing"

	"repro/internal/vec"
)

// TestProbeStatsCounted checks that every index kind records query and
// probe counts for the full query surface (Nearest, NearestWithin,
// KNearest).
func TestProbeStatsCounted(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(string(kind), func(t *testing.T) {
			idx, err := New(kind, vec.EuclideanMetric{}, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				key := vec.Vector{float64(i), float64(i % 7), float64(i % 3)}
				if err := idx.Insert(ID(i), key); err != nil {
					t.Fatal(err)
				}
			}
			if ps := idx.ProbeStats(); ps.Queries != 0 || ps.Probes != 0 {
				t.Fatalf("inserts must not count as queries: %+v", ps)
			}
			q := vec.Vector{5, 5, 1}
			idx.Nearest(q)
			idx.NearestWithin(q, 2)
			idx.KNearest(q, 4)
			ps := idx.ProbeStats()
			if ps.Queries < 3 {
				t.Fatalf("queries = %d, want >= 3", ps.Queries)
			}
			if ps.Probes <= 0 {
				t.Fatalf("probes = %d, want > 0", ps.Probes)
			}
		})
	}
}

// TestProbeStatsLinearExact pins the linear index's probe accounting:
// every query scans all stored keys.
func TestProbeStatsLinearExact(t *testing.T) {
	l := NewLinear(vec.EuclideanMetric{})
	for i := 0; i < 10; i++ {
		if err := l.Insert(ID(i), vec.Vector{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Nearest(vec.Vector{3})
	l.KNearest(vec.Vector{3}, 2)
	ps := l.ProbeStats()
	if ps.Queries != 2 || ps.Probes != 20 {
		t.Fatalf("probe stats = %+v, want {Queries:2 Probes:20}", ps)
	}
}
