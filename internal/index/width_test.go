package index

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestOneKeyLengthPerIndex: the kinds that keep every key at one length,
// the first key's (the k-d tree, HNSW, HNSW-PQ, IVF and LSH),
// refuse a key of another length with vec.ErrDimensionMismatch and are
// left as they were: same Len, same answers. They find nothing for a
// query of another length, and no kind panics on one, before or after
// its IVF cells and PQ codebooks are trained.
func TestOneKeyLengthPerIndex(t *testing.T) {
	oneLength := map[Kind]bool{
		KindKDTree: true, KindHNSW: true, KindHNSWPQ: true,
		KindIVF: true, KindLSH: true,
	}
	opts := Options{IVF: IVFConfig{Cells: 4, TrainAfter: 32}, PQ: PQConfig{TrainSize: 32}}
	for _, kind := range allKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			idx, err := NewWithOptions(kind, vec.EuclideanMetric{}, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for _, n := range []int{8, 64} { // before and after training
				for idx.Len() < n {
					if err := idx.Insert(ID(idx.Len()), randomVec(rng, 4)); err != nil {
						t.Fatal(err)
					}
				}
				q := randomVec(rng, 4)
				before := idx.KNearest(q, 5)
				for _, other := range []vec.Vector{randomVec(rng, 2), randomVec(rng, 8)} {
					if oneLength[kind] {
						if err := idx.Insert(ID(n), other); !errors.Is(err, vec.ErrDimensionMismatch) {
							t.Fatalf("Insert of a %d-length key into %d-length keys = %v, want ErrDimensionMismatch", len(other), 4, err)
						}
					}
					nb, ok := idx.Nearest(other)
					ns := idx.KNearest(other, 3)
					var rs []Neighbor
					if r, isR := idx.(RadiusSearcher); isR {
						rs = r.Radius(other, 1e9)
					}
					if oneLength[kind] && (ok || len(ns) > 0 || len(rs) > 0) {
						t.Fatalf("a %d-length query found %+v (%v), %d and %d neighbours", len(other), nb, ok, len(ns), len(rs))
					}
				}
				if !oneLength[kind] {
					continue
				}
				if idx.Len() != n {
					t.Fatalf("Len = %d after refused inserts, want %d", idx.Len(), n)
				}
				if after := idx.KNearest(q, 5); !sameNeighbors(after, before) {
					t.Fatalf("answers changed across refused inserts: %v, then %v", before, after)
				}
			}
		})
	}
}
