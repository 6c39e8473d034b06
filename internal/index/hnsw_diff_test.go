package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

// TestHNSWMatchesOracle replays seeded streams of inserts, re-inserts,
// removals and queries against the node-table HNSW and the map-based
// reference it replaced (hnsw_oracle_test.go). After every operation the
// two must hold the same graph and give the same answer: identical ids,
// bit-identical distances, identical probe counts.
func TestHNSWMatchesOracle(t *testing.T) {
	ops := 2000
	seeds := 8
	if testing.Short() {
		ops, seeds = 600, 2
	}
	for _, kind := range []Kind{KindHNSW, KindHNSWPQ} {
		for _, efs := range []int{16, 64, 512} {
			for seed := 1; seed <= seeds; seed++ {
				kind, efs, seed := kind, efs, seed
				t.Run(fmt.Sprintf("%s/efs%d/seed%d", kind, efs, seed), func(t *testing.T) {
					t.Parallel()
					newDiffRun(t, kind, efs, int64(seed)).run(ops)
				})
			}
		}
	}
}

// diffRun is one side-by-side replay.
type diffRun struct {
	t       *testing.T
	rng     *rand.Rand
	got     *HNSW
	want    *oracleHNSW
	ref     map[ID]vec.Vector // live entries
	live    []ID              // ref's keys, for seeded random picks
	removed []ID
	next    ID
	centres []vec.Vector
	op      int
	// What the stream has exercised: a slot recycled for a different id,
	// and an id going back into its own vacant, still-referenced slot.
	tenant             map[int32]ID
	recycled, returned bool
}

const diffDim = 8

func newDiffRun(t *testing.T, kind Kind, efs int, seed int64) *diffRun {
	// Odd seeds build a small, tight graph (trimming and repair on nearly
	// every mutation), even seeds the default one.
	cfg := HNSWConfig{EfSearch: efs, Seed: seed}
	if seed%2 == 1 {
		cfg.M, cfg.EfConstruction, cfg.RepairBudget = 6, 24, 1
	}
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(seed*7919 + int64(efs))), ref: make(map[ID]vec.Vector), tenant: make(map[int32]ID)}
	m := vec.EuclideanMetric{}
	if kind == KindHNSWPQ {
		pq := PQConfig{TrainSize: 96, ReRank: 6, KeepRecent: 16, Seed: seed}
		d.got, d.want = NewHNSWPQ(m, cfg, pq), newOracleHNSW(m, cfg, newPQStore(m, pq))
		if seed%4 < 2 {
			// The cache-core deployment: exact vectors come from outside.
			resolve := func(id ID) (vec.Vector, bool) { v, ok := d.ref[id]; return v, ok }
			d.got.SetKeyResolver(resolve)
			d.want.SetKeyResolver(resolve)
		}
	} else {
		d.got, d.want = NewHNSW(m, cfg), newOracleHNSW(m, cfg, newFlatStore(m))
	}
	for i := 0; i < 12; i++ {
		c := make(vec.Vector, diffDim)
		for j := range c {
			c[j] = d.rng.NormFloat64() * 10
		}
		d.centres = append(d.centres, c)
	}
	return d
}

func (d *diffRun) point() vec.Vector {
	if len(d.live) > 0 && d.rng.Intn(20) == 0 {
		// An exact duplicate of a stored key: distance ties, broken by id.
		return d.ref[d.live[d.rng.Intn(len(d.live))]].Clone()
	}
	c := d.centres[d.rng.Intn(len(d.centres))]
	v := make(vec.Vector, diffDim)
	for j := range v {
		v[j] = c[j] + d.rng.NormFloat64()
	}
	return v
}

func (d *diffRun) insert(id ID) {
	v := d.point()
	if _, ok := d.ref[id]; !ok {
		d.live = append(d.live, id)
	}
	d.ref[id] = v
	if s, ok := d.got.slotOf[id]; ok && d.got.nodes[s].level < 0 {
		d.returned = true
	}
	if err := d.got.Insert(id, v); err != nil {
		d.t.Fatal(err)
	}
	s := d.got.slotOf[id]
	if before, ok := d.tenant[s]; ok && before != id {
		d.recycled = true
	}
	d.tenant[s] = id
	if err := d.want.Insert(id, v); err != nil {
		d.t.Fatal(err)
	}
}

func (d *diffRun) remove(id ID) {
	if _, ok := d.ref[id]; !ok {
		return
	}
	delete(d.ref, id)
	for i, x := range d.live {
		if x == id {
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			break
		}
	}
	d.removed = append(d.removed, id)
	d.got.Remove(id)
	d.want.Remove(id)
}

func (d *diffRun) run(ops int) {
	for d.op = 0; d.op < ops; d.op++ {
		switch r := d.rng.Intn(100); {
		case len(d.live) < 20 || r < 30:
			d.insert(d.next)
			d.next++
		case r < 40:
			d.insert(d.live[d.rng.Intn(len(d.live))]) // replace a live id
		case r < 45 && len(d.removed) > 0:
			// Bring a freed id back, usually a recent one: links to it
			// may still dangle.
			back := d.rng.Intn(len(d.removed))
			if d.rng.Intn(4) > 0 {
				back = len(d.removed) - 1 - d.rng.Intn(min(6, len(d.removed)))
			}
			d.insert(d.removed[back])
		case r < 47 && d.want.entryOK:
			d.remove(d.want.entry)
		case r < 65:
			d.remove(d.live[d.rng.Intn(len(d.live))])
		case r < 66:
			// A burst that frees a third of the graph, so that the inserts
			// after it land in recycled slots.
			for i := len(d.live) / 3; i > 0; i-- {
				d.remove(d.live[d.rng.Intn(len(d.live))])
			}
		case r < 78:
			d.nearest()
		case r < 89:
			d.knearest(5)
		default:
			d.radius(d.rng.Float64() * 4)
		}
		d.nearest()
		d.sameGraph()
	}
	if !d.recycled || !d.returned {
		d.t.Errorf("stream too tame: slot recycled for another id %v, id returned to its dangling slot %v", d.recycled, d.returned)
	}
}

func (d *diffRun) query() vec.Vector {
	q := d.point()
	q[0] += d.rng.NormFloat64() * 0.3
	return q
}

func (d *diffRun) nearest() {
	q := d.query()
	got, gotProbes, gotOK := d.got.NearestProbed(q)
	want, wantProbes, wantOK := d.want.NearestProbed(q)
	if gotOK != wantOK || gotProbes != wantProbes {
		d.t.Fatalf("op %d: Nearest ok/probes = %v/%d, oracle %v/%d", d.op, gotOK, gotProbes, wantOK, wantProbes)
	}
	if gotOK {
		d.same("Nearest", []Neighbor{got}, []Neighbor{want})
	}
}

func (d *diffRun) knearest(k int) {
	q := d.query()
	got, gotProbes := d.got.KNearestProbed(q, k)
	want, wantProbes := d.want.KNearestProbed(q, k)
	if gotProbes != wantProbes {
		d.t.Fatalf("op %d: KNearest probes = %d, oracle %d", d.op, gotProbes, wantProbes)
	}
	d.same("KNearest", got, want)
}

func (d *diffRun) radius(r float64) {
	q := d.query()
	d.same("Radius", d.got.Radius(q, r), d.want.Radius(q, r))
	if got, want := d.got.ProbeStats(), d.want.ProbeStats(); got != want {
		d.t.Fatalf("op %d: probe stats after Radius = %+v, oracle %+v", d.op, got, want)
	}
}

func (d *diffRun) same(what string, got, want []Neighbor) {
	if len(got) != len(want) {
		d.t.Fatalf("op %d: %s returned %d neighbours, oracle %d", d.op, what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) || !slices.Equal(g.Key, w.Key) {
			d.t.Fatalf("op %d: %s[%d] = id %d dist %x, oracle id %d dist %x", d.op, what, i,
				g.ID, math.Float64bits(g.Dist), w.ID, math.Float64bits(w.Dist))
		}
	}
}

// sameGraph compares the two structures node by node and link by link
// (dangling links included: a vacant slot keeps the id they name), and
// checks the node table's own bookkeeping.
func (d *diffRun) sameGraph() {
	g, w := d.got, d.want
	if g.Len() != w.live || g.Len() != len(d.ref) {
		d.t.Fatalf("op %d: Len = %d, oracle %d, reference %d", d.op, g.Len(), w.live, len(d.ref))
	}
	if (g.entry >= 0) != w.entryOK || (w.entryOK && (g.nodes[g.entry].id != w.entry || g.maxLevel != w.maxLevel)) {
		d.t.Fatalf("op %d: entry slot %d level %d, oracle entry %d (ok %v) level %d", d.op, g.entry, g.maxLevel, w.entry, w.entryOK, w.maxLevel)
	}
	if g.KeyBytes() != w.store.keyBytes() {
		d.t.Fatalf("op %d: KeyBytes = %d, oracle %d", d.op, g.KeyBytes(), w.store.keyBytes())
	}
	refs := make([]int32, len(g.nodes))
	occupied := 0
	for s := range g.nodes {
		n := &g.nodes[s]
		if at, ok := g.slotOf[n.id]; n.level >= 0 || n.refs > 0 {
			if !ok || int(at) != s {
				d.t.Fatalf("op %d: slot %d holds id %d but slotOf says %d (%v)", d.op, s, n.id, at, ok)
			}
		}
		if n.level < 0 {
			if n.links != nil || n.vec != nil || n.deleted {
				d.t.Fatalf("op %d: vacant slot %d still holds a node's state", d.op, s)
			}
			continue
		}
		occupied++
		wn, ok := w.nodes[n.id]
		if !ok || wn.level != int(n.level) || wn.deleted != n.deleted {
			d.t.Fatalf("op %d: node %d (level %d, deleted %v) differs from the oracle's %+v", d.op, n.id, n.level, n.deleted, wn)
		}
		for l, list := range n.links {
			if len(list) != len(wn.links[l]) {
				d.t.Fatalf("op %d: node %d level %d has %d links, oracle %d", d.op, n.id, l, len(list), len(wn.links[l]))
			}
			for i, x := range list {
				refs[x]++
				if g.nodes[x].id != wn.links[l][i] {
					d.t.Fatalf("op %d: node %d level %d link %d names id %d, oracle %d", d.op, n.id, l, i, g.nodes[x].id, wn.links[l][i])
				}
			}
		}
	}
	if occupied != len(w.nodes) {
		d.t.Fatalf("op %d: %d occupied slots, oracle has %d nodes", d.op, occupied, len(w.nodes))
	}
	for s, want := range refs {
		if g.nodes[s].refs != want {
			d.t.Fatalf("op %d: slot %d counts %d references, %d links name it", d.op, s, g.nodes[s].refs, want)
		}
	}
	for _, s := range g.free {
		if n := &g.nodes[s]; n.level >= 0 || n.refs != 0 {
			d.t.Fatalf("op %d: free slot %d is occupied or referenced (level %d, refs %d)", d.op, s, n.level, n.refs)
		}
	}
	if len(g.slotOf)+len(g.free) != len(g.nodes) {
		d.t.Fatalf("op %d: %d mapped + %d free slots, table has %d", d.op, len(g.slotOf), len(g.free), len(g.nodes))
	}
}
