package index

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// TestConcurrentQueryUnderChurn reproduces the cache core's locking
// discipline: one writer mutates the index under Lock while many readers
// query under RLock. Every kind must survive this under -race — queries
// may not share mutable scratch (per-query ADC tables, pooled visited
// stamps and heaps) and mutation state (tombstone repair, PQ training, cell
// reassignment) must stay entirely under the write lock.
func TestConcurrentQueryUnderChurn(t *testing.T) {
	const (
		dim     = 8
		readers = 4
		rounds  = 400
	)
	for _, kind := range allKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			idx, err := NewWithOptions(kind, vec.EuclideanMetric{}, dim, Options{
				// Low training thresholds so churn crosses the
				// untrained→trained boundary mid-test.
				IVF: IVFConfig{TrainAfter: 64},
				PQ:  PQConfig{TrainSize: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.RWMutex
			seed := rand.New(rand.NewSource(int64(len(kind))))
			mu.Lock()
			for i := 0; i < 128; i++ {
				if err := idx.Insert(ID(i), randomVec(seed, dim)); err != nil {
					t.Fatal(err)
				}
			}
			mu.Unlock()

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := randomVec(rng, dim)
						mu.RLock()
						idx.Nearest(q)
						idx.KNearest(q, 5)
						idx.ProbeStats()
						mu.RUnlock()
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(999))
			next := ID(128)
			graph, _ := idx.(*HNSW)
			slotCap := 0
			for i := 0; i < rounds; i++ {
				if i == rounds/2 {
					// A burst that outgrows the HNSW node table while the
					// readers hold pooled scratch sized for the old one:
					// their next search must size it again.
					if graph != nil {
						mu.RLock()
						slotCap = cap(graph.nodes)
						mu.RUnlock()
					}
					for j := 0; j < 400; j++ {
						mu.Lock()
						idx.Insert(next, randomVec(rng, dim))
						next++
						mu.Unlock()
					}
				}
				mu.Lock()
				switch rng.Intn(3) {
				case 0:
					idx.Insert(next, randomVec(rng, dim))
					next++
				case 1:
					idx.Remove(ID(rng.Intn(int(next))))
				default:
					// Replace an existing id (remove+reinsert path).
					idx.Insert(ID(rng.Intn(int(next))), randomVec(rng, dim))
				}
				mu.Unlock()
			}
			close(stop)
			wg.Wait()

			// The structure must still answer correctly after churn.
			mu.RLock()
			defer mu.RUnlock()
			if graph != nil && cap(graph.nodes) <= slotCap {
				t.Errorf("node table capacity stayed at %d: the burst did not cross a growth", slotCap)
			}
			if idx.Len() > 0 {
				if _, ok := idx.Nearest(randomVec(rng, dim)); !ok {
					t.Error("populated index returned no nearest after churn")
				}
			}
		})
	}
}

// TestHNSWHeavyChurnKeepsAnswering drives HNSW through far more
// removals than the repair budget keeps up with mid-stream, verifying
// tombstone routing, entry re-election, and eventual re-link all hold
// up (and that Len stays consistent with a reference set).
func TestHNSWHeavyChurnKeepsAnswering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := NewHNSW(vec.EuclideanMetric{}, HNSWConfig{M: 8, EfConstruction: 32, EfSearch: 32})
	ref := make(map[ID]vec.Vector)
	next := ID(0)
	for round := 0; round < 2000; round++ {
		switch {
		case len(ref) < 50 || rng.Intn(3) != 0:
			v := randomVec(rng, 4)
			h.Insert(next, v)
			ref[next] = v
			next++
		default:
			// Remove a random live id.
			for id := range ref {
				h.Remove(id)
				delete(ref, id)
				break
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, h.Len(), len(ref))
		}
	}
	lin := NewLinear(vec.EuclideanMetric{})
	for id, v := range ref {
		lin.Insert(id, v)
	}
	hits := 0
	const queries = 200
	for q := 0; q < queries; q++ {
		query := randomVec(rng, 4)
		want, _ := lin.Nearest(query)
		got, ok := h.Nearest(query)
		if !ok {
			t.Fatal("no result after churn")
		}
		if got.Dist <= want.Dist+1e-9 {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.9 {
		t.Errorf("post-churn recall@1 = %.3f, want >= 0.9", recall)
	}
}
