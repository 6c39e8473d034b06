package index

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// indexScaleGraph builds flat HNSW over the benchmark's index-scale
// corpus shape: 16-dim entries in 256 clusters, sigma 2 around centres
// drawn with sigma 100. Queries sit 0.5 off a stored entry.
func indexScaleGraph(t testing.TB, n int) (*HNSW, []vec.Vector) {
	rng := rand.New(rand.NewSource(18))
	corpus := clusteredCorpus(rng, n, 16, 256, 2)
	h := NewHNSW(vec.EuclideanMetric{}, HNSWConfig{})
	for i, k := range corpus {
		if err := h.Insert(ID(i+1), k); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]vec.Vector, 64)
	for i := range queries {
		queries[i] = corpus[rng.Intn(n)].Clone()
		for d := range queries[i] {
			queries[i][d] += rng.NormFloat64() * 0.5
		}
	}
	return h, queries
}

// TestHNSWProbeDoesNotAllocate pins what the node table and the scratch
// pool are for: a flat-store Nearest allocates nothing (2 is the
// ceiling; 0 is what it measures), an Insert only the node it adds.
func TestHNSWProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	n := 8000
	if testing.Short() {
		n = 2000
	}
	h, queries := indexScaleGraph(t, n)
	for _, efs := range []int{64, 512} {
		h.cfg.EfSearch = efs
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			h.Nearest(queries[i%len(queries)])
			i++
		})
		t.Logf("efs %d: %.0f allocs per Nearest", efs, allocs)
		if allocs > 2 {
			t.Errorf("efs %d: %.0f allocs per Nearest, want <= 2", efs, allocs)
		}
	}
	next := ID(n + 1)
	allocs := testing.AllocsPerRun(200, func() {
		h.Insert(next, queries[int(next)%len(queries)])
		next++
	})
	t.Logf("%.0f allocs per Insert", allocs)
	if allocs > 40 {
		t.Errorf("%.0f allocs per Insert, want <= 40", allocs)
	}
}

// TestHNSWConcurrentReadersGetSerialAnswers: eight readers under RLock
// on a static graph must each get exactly the answers a lone reader
// gets. Scratch shared between searches would show here as a wrong
// neighbour or probe count (and under -race as a data race).
func TestHNSWConcurrentReadersGetSerialAnswers(t *testing.T) {
	h, queries := indexScaleGraph(t, 2000)
	type answer struct {
		id     ID
		dist   uint64
		probes int
		k5     ID
	}
	ask := func(q vec.Vector) answer {
		n, probes, _ := h.NearestProbed(q)
		k := h.KNearest(q, 5)
		return answer{n.ID, math.Float64bits(n.Dist), probes, k[len(k)-1].ID}
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i] = ask(q)
	}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range queries {
					i = (i + r*7) % len(queries)
					mu.RLock()
					got := ask(queries[i])
					mu.RUnlock()
					if got != want[i] {
						t.Errorf("reader %d query %d: got %+v, serial answer %+v", r, i, got, want[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestVisitedEpochWrapClears forces a scratch to the last epoch with
// stale stamps that equal the epoch after the wrap: the wrap must wipe
// them, or the search would take every node for already seen.
func TestVisitedEpochWrapClears(t *testing.T) {
	h, queries := indexScaleGraph(t, 500)
	for _, q := range queries[:8] {
		want, wantProbes := h.query(newScratch(), q, 3)
		sc := newScratch()
		sc.begin(cap(h.nodes))
		for i := range sc.visited {
			sc.visited[i] = 1
		}
		sc.epoch = math.MaxUint32
		got, gotProbes := h.query(sc, q, 3)
		if sc.epoch != 1 {
			t.Fatalf("epoch after the wrap = %d, want 1", sc.epoch)
		}
		if gotProbes != wantProbes || len(got) != len(want) {
			t.Fatalf("after the wrap: %d results, %d probes; want %d, %d", len(got), gotProbes, len(want), wantProbes)
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("after the wrap: result %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// TestDistHeapOrder checks the typed heap against a sort, ties on
// distance included, in both directions and through best().
func TestDistHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(60)
		items := make([]scored, n)
		for i := range items {
			items[i] = scored{dist: float64(rng.Intn(8)), id: ID(i)}
		}
		rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
		sorted := make([]Neighbor, n)
		for i, x := range items {
			sorted[i] = Neighbor{ID: x.id, Dist: x.dist}
		}
		sortNeighbors(sorted)

		var minH distHeap
		maxH := distHeap{max: true}
		for _, x := range items {
			minH.push(x)
			maxH.push(x)
		}
		for i := 0; i < n; i++ {
			if x := minH.pop(); x.id != sorted[i].ID {
				t.Fatalf("round %d: min-heap pop %d = id %d, want %d", round, i, x.id, sorted[i].ID)
			}
		}
		k := 1 + rng.Intn(n)
		spare := distHeap{max: true}
		for i, x := range maxH.best(k, &spare) {
			if x.id != sorted[i].ID {
				t.Fatalf("round %d: best(%d of %d)[%d] = id %d, want %d", round, k, n, i, x.id, sorted[i].ID)
			}
		}
	}
}
