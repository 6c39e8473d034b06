package index

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/vec"
)

// indexScaleGraph builds flat HNSW over the benchmark's index-scale
// corpus shape from seed: n 16-dim entries in 256 clusters, sigma 2
// around centres drawn with sigma 100, ids 1 to n in slots 0 to n-1. Of
// its nq queries a share far lies at 5 000 ± 100 on every axis, nearer
// no entry than any threshold, and the rest sit 0.5 off a stored entry.
// At n = 8 000 and a far share of 0.05 the keys and queries are the
// benchmark's own for the same seed.
func indexScaleGraph(t testing.TB, n int, seed int64, nq int, far float64) (*HNSW, []vec.Vector) {
	return fillIndexScaleGraph(t, NewHNSW(vec.EuclideanMetric{}, HNSWConfig{}), n, seed, nq, far)
}

// fillIndexScaleGraph is indexScaleGraph inserting into h, of either
// kind.
func fillIndexScaleGraph(t testing.TB, h *HNSW, n int, seed int64, nq int, far float64) (*HNSW, []vec.Vector) {
	rng := rand.New(rand.NewSource(seed))
	corpus := clusteredCorpus(rng, n, 16, 256, 2)
	for i, k := range corpus {
		if err := h.Insert(ID(i+1), k); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]vec.Vector, nq)
	for i := range queries {
		if far > 0 && rng.Float64() < far {
			queries[i] = make(vec.Vector, 16)
			for d := range queries[i] {
				queries[i][d] = 5000 + rng.NormFloat64()*100
			}
			continue
		}
		queries[i] = corpus[rng.Intn(n)].Clone()
		for d := range queries[i] {
			queries[i][d] += rng.NormFloat64() * 0.5
		}
	}
	return h, queries
}

// TestHNSWProbeDoesNotAllocate pins what the node table and the scratch
// pool are for: an HNSW Nearest allocates nothing, unbounded or within
// 4× index-scale's threshold, flat (2 is the ceiling; 0 is what it
// measures) or on a trained HNSW-PQ graph, whose ADC table lives in the
// scratch (0 is the ceiling), a far probe the box answers nothing at
// all (0 is the ceiling), and a flat Insert, which keeps the key it is given, only the
// upper layers' link lists of about one node in sixteen (1 is the
// ceiling; 0 is what it measures, table growth included).
func TestHNSWProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	n := 8000
	if testing.Short() {
		n = 2000
	}
	pq, _ := fillIndexScaleGraph(t, NewHNSWPQ(vec.EuclideanMetric{}, HNSWConfig{}, PQConfig{TrainSize: n / 2}), n, 18, 0, 0)
	if pq.codec == nil {
		t.Fatal("the HNSW-PQ graph is not trained")
	}
	h, queries := indexScaleGraph(t, n, 18, 64, 0)
	far := make(vec.Vector, 16)
	for d := range far {
		far[d] = 5000
	}
	// A table or closure made per query would be one allocation each.
	ceiling := map[Kind]float64{KindHNSW: 2, KindHNSWPQ: 0}
	for _, g := range []*HNSW{h, pq} {
		for _, efs := range []int{64, 512} {
			for _, r := range []float64{math.Inf(1), 4 * 15.6} {
				g.cfg.EfSearch = efs
				i := 0
				allocs := testing.AllocsPerRun(200, func() {
					g.NearestWithin(queries[i%len(queries)], r)
					i++
				})
				t.Logf("%s efs %d: %.0f allocs per NearestWithin(q, %v)", g.Kind(), efs, allocs, r)
				if allocs > ceiling[g.Kind()] {
					t.Errorf("%s efs %d: %.0f allocs per NearestWithin(q, %v), want <= %.0f", g.Kind(), efs, allocs, r, ceiling[g.Kind()])
				}
			}
		}
		if _, probes, ok := g.NearestWithin(far, 4*15.6); ok || probes != 0 {
			t.Fatalf("%s: a far probe scored %d nodes (found %v); the box should answer it", g.Kind(), probes, ok)
		}
		if allocs := testing.AllocsPerRun(200, func() { g.NearestWithin(far, 4*15.6) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs per certified far probe, want 0", g.Kind(), allocs)
		}
	}
	next := ID(n + 1)
	allocs := testing.AllocsPerRun(200, func() {
		h.Insert(next, queries[int(next)%len(queries)])
		next++
	})
	t.Logf("%.0f allocs per Insert", allocs)
	if allocs > 1 {
		t.Errorf("%.0f allocs per Insert, want <= 1", allocs)
	}
}

// TestHNSWConcurrentReadersGetSerialAnswers: eight readers under RLock
// must each get exactly the answers a lone reader gets, round after
// round. Scratch shared between searches would show as a wrong neighbour
// or probe count (and under -race as a data race). Between rounds the
// writer gives every id a reader was handed a new key, removes others
// (repairs free their slots) and inserts new ids, which take the freed
// slots: rows are rewritten in place. Every Neighbor.Key a reader was
// handed must survive that unchanged.
func TestHNSWConcurrentReadersGetSerialAnswers(t *testing.T) {
	const n = 2000
	h, queries := indexScaleGraph(t, n, 18, 64, 0)
	rng := rand.New(rand.NewSource(30))
	live := make([]ID, 0, n)
	for id := ID(1); id <= n; id++ {
		live = append(live, id)
	}
	next := ID(n + 1)
	type answer struct {
		id     ID
		dist   uint64
		probes int
		k5     ID
	}
	ask := func(q vec.Vector) (answer, []Neighbor) {
		n, probes, _ := h.NearestWithin(q, math.Inf(1))
		k, _ := h.KNearest(q, 5)
		return answer{n.ID, math.Float64bits(n.Dist), probes, k[len(k)-1].ID}, append(k, n)
	}
	var handed, copies []vec.Vector // keys readers were given, and copies of them
	handedIDs := make(map[ID]bool)
	var mu sync.RWMutex
	for round := 0; round < 4; round++ {
		if round > 0 {
			tenants := slices.Clone(h.ids)
			for i, id := range live {
				if handedIDs[id] {
					h.Insert(id, jitter(rng, queries[i%len(queries)]))
				}
			}
			for i := 0; i < 300; i++ {
				j := rng.Intn(len(live))
				h.Remove(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for i := 0; i < 300; i++ {
				h.Insert(next, jitter(rng, queries[rng.Intn(len(queries))]))
				live = append(live, next)
				next++
			}
			recycled := 0
			for s, id := range tenants {
				if h.ids[s] != id {
					recycled++
				}
			}
			if recycled == 0 {
				t.Fatalf("round %d: no slot was recycled for another id between rounds", round)
			}
			for i, k := range handed {
				if !sameBits(k, copies[i]) {
					t.Fatalf("round %d: a key handed out earlier changed to %v from %v", round, k, copies[i])
				}
			}
		}
		want := make([]answer, len(queries))
		for i, q := range queries {
			want[i], _ = ask(q)
		}
		var wg sync.WaitGroup
		got := make([][]Neighbor, 8)
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := range queries {
					i = (i + r*7) % len(queries)
					mu.RLock()
					a, ns := ask(queries[i])
					mu.RUnlock()
					if a != want[i] {
						t.Errorf("round %d reader %d query %d: got %+v, serial answer %+v", round, r, i, a, want[i])
						return
					}
					got[r] = append(got[r], ns...)
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, ns := range got {
			for _, nb := range ns {
				handed, copies = append(handed, nb.Key), append(copies, nb.Key.Clone())
				handedIDs[nb.ID] = true
			}
		}
	}
}

// jitter returns a copy of v moved by sigma 0.5 on every axis.
func jitter(rng *rand.Rand, v vec.Vector) vec.Vector {
	out := v.Clone()
	for d := range out {
		out[d] += rng.NormFloat64() * 0.5
	}
	return out
}

// TestVisitedEpochWrapClears forces a scratch to the last epoch with
// stale stamps that equal the epoch after the wrap: the wrap must wipe
// them, or the search would take every node for already seen.
func TestVisitedEpochWrapClears(t *testing.T) {
	h, queries := indexScaleGraph(t, 500, 18, 64, 0)
	for _, q := range queries[:8] {
		want, wantProbes := h.query(newScratch(), q, 3, math.Inf(1))
		sc := newScratch()
		sc.begin(h, cap(h.nodes))
		for i := range sc.visited {
			sc.visited[i] = 1
		}
		sc.epoch = math.MaxUint32
		got, gotProbes := h.query(sc, q, 3, math.Inf(1))
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

// idColumn names the entry in each slot by indexing, as HNSW's id
// column does.
type idColumn []ID

func (c idColumn) idAt(s int32) ID { return c[s] }

// TestDistHeapOrder checks the heap against a sort, in both directions
// and through best(). Distances tie often, and slots are numbered against
// ids (slot i holds id n-i), so a heap that broke a tie on the slot would
// come out in the wrong order.
func TestDistHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(60)
		ids := make(idColumn, n)
		items := make([]scored, n)
		for i := range items {
			ids[i] = ID(n - i)
			items[i] = scored{dist: float64(rng.Intn(8)), slot: int32(i)}
		}
		rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
		sorted := make([]Neighbor, n)
		for i, x := range items {
			sorted[i] = Neighbor{ID: ids[x.slot], Dist: x.dist}
		}
		sortNeighbors(sorted)

		minH := distHeap{ids: ids}
		maxH := distHeap{ids: ids, max: true}
		for _, x := range items {
			minH.push(x)
			maxH.push(x)
		}
		for i := 0; i < n; i++ {
			if x := minH.pop(); ids[x.slot] != sorted[i].ID {
				t.Fatalf("round %d: min-heap pop %d = id %d, want %d", round, i, ids[x.slot], sorted[i].ID)
			}
		}
		k := 1 + rng.Intn(n)
		spare := distHeap{ids: ids, max: true}
		for i, x := range maxH.best(k, &spare) {
			if ids[x.slot] != sorted[i].ID {
				t.Fatalf("round %d: best(%d of %d)[%d] = id %d, want %d", round, k, n, i, ids[x.slot], sorted[i].ID)
			}
		}
	}
}
