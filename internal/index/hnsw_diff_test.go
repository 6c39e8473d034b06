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
// two must hold the same graph and the same box, and give the same
// answer, bounded and unbounded, searched or certified by the box:
// identical ids, bit-identical distances, identical probe counts. About
// one query in ten lies far from every cluster, where the box answers a
// bounded query without a search.
func TestHNSWMatchesOracle(t *testing.T) {
	// Short mode runs fewer seeds, not shorter streams: at 600 ops the
	// default-config seed never brings an id back to its dangling slot.
	ops := 2000
	seeds := 8
	if testing.Short() {
		seeds = 2
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
	// an id going back into its own vacant, still-referenced slot, and a
	// query the box answered.
	tenant                        map[int32]ID
	recycled, returned, certified bool
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
		pq := PQConfig{TrainSize: 48, ReRank: 6, Seed: seed}
		d.got, d.want = NewHNSWPQ(m, cfg, pq), newOracleHNSW(m, cfg, newPQStore(m, pq))
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
	if s, ok := d.got.slotOf[id]; ok && d.got.levels[s] < 0 {
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
		if err := d.sameGraph(); err != nil {
			d.t.Fatalf("op %d: %v", d.op, err)
		}
	}
	if !d.recycled || !d.returned || !d.certified {
		d.t.Errorf("stream too tame: slot recycled for another id %v, id returned to its dangling slot %v, a query certified by the box %v",
			d.recycled, d.returned, d.certified)
	}
	if d.got.pq != nil && d.got.codec == nil {
		d.t.Error("stream too tame: the PQ codec was never trained")
	}
}

func (d *diffRun) query() vec.Vector {
	q := d.point()
	q[0] += d.rng.NormFloat64() * 0.3
	return q
}

// far returns a query at least 100 off every centre, and so far beyond
// diffMidRadius from every key, which lie a few units off theirs.
func (d *diffRun) far() vec.Vector {
	for {
		q := make(vec.Vector, diffDim)
		for j := range q {
			q[j] = d.rng.NormFloat64() * 150
		}
		near := false
		for _, c := range d.centres {
			near = near || d.got.metric.Distance(q, c) < 100
		}
		if !near {
			return q
		}
	}
}

// diffMidRadius lies between a query's nearest neighbour in its own
// cluster (a few units off) and the other clusters (tens of units off).
const diffMidRadius = 6

// nearest asks both sides for one query's nearest neighbour within 0,
// within the exact nearest distance, within diffMidRadius and unbounded.
// The flat store bounds its search by each radius (none reaches the
// PQ store's), and either side may answer a bounded query from its box,
// so the bounded searches are compared probe for probe too. One query in
// ten is far.
func (d *diffRun) nearest() {
	q := d.query()
	if d.rng.Intn(10) == 0 {
		q = d.far()
	}
	exact := math.Inf(1)
	for _, v := range d.ref {
		exact = min(exact, d.got.metric.Distance(q, v))
	}
	for _, r := range []float64{0, exact, diffMidRadius, math.Inf(1)} {
		got, gotProbes, gotOK := d.got.NearestWithin(q, r)
		want, wantProbes, wantOK := d.want.NearestWithin(q, r)
		if gotOK != wantOK || gotProbes != wantProbes {
			d.t.Fatalf("op %d: NearestWithin(q, %v) ok/probes = %v/%d, oracle %v/%d", d.op, r, gotOK, gotProbes, wantOK, wantProbes)
		}
		if gotOK {
			d.same(fmt.Sprintf("NearestWithin(q, %v)", r), []Neighbor{got}, []Neighbor{want})
		}
		d.certified = d.certified || !gotOK && gotProbes == 0 && len(d.ref) > 0
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
	if d.rng.Intn(4) == 0 {
		q = d.far()
	}
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
// checks the node table's own bookkeeping and its flat arrays.
func (d *diffRun) sameGraph() error {
	g, w := d.got, d.want
	if g.Len() != w.live || g.Len() != len(d.ref) {
		return fmt.Errorf("Len = %d, oracle %d, reference %d", g.Len(), w.live, len(d.ref))
	}
	if (g.entry >= 0) != w.entryOK || (w.entryOK && (g.ids[g.entry] != w.entry || g.maxLevel != w.maxLevel)) {
		return fmt.Errorf("entry slot %d level %d, oracle entry %d (ok %v) level %d", g.entry, g.maxLevel, w.entry, w.entryOK, w.maxLevel)
	}
	if err := checkHNSW(g); err != nil {
		return err
	}
	if w.live > 0 && (!sameBits(g.lo, w.lo) || !sameBits(g.hi, w.hi)) {
		return fmt.Errorf("box %v to %v, oracle %v to %v", g.lo, g.hi, w.lo, w.hi)
	}
	// A flat store counts a key once, as its row: the key itself is the
	// caller's.
	if g.KeyBytes() != w.store.keyBytes() {
		return fmt.Errorf("KeyBytes = %d, oracle %d", g.KeyBytes(), w.store.keyBytes())
	}
	// Under PQ the codec is trained when the oracle's store is, on the
	// same sample, and every node's code is the store's for its id.
	pq, _ := w.store.(*pqStore)
	if pq != nil && (g.codec != nil) != pq.trained {
		return fmt.Errorf("codec trained %v, oracle's store %v", g.codec != nil, pq.trained)
	}
	if g.codec != nil {
		for i, book := range g.codec.books {
			if !sameBits(book, pq.codec.books[i]) {
				return fmt.Errorf("codebook %d differs from the oracle's", i)
			}
		}
	}
	refs := make([]int32, len(g.nodes))
	occupied := 0
	for s := range g.nodes {
		id, level, slot := g.ids[s], int(g.levels[s]), int32(s)
		if at, ok := g.slotOf[id]; level >= 0 || g.nodes[s].refs > 0 {
			if !ok || int(at) != s {
				return fmt.Errorf("slot %d holds id %d but slotOf says %d (%v)", s, id, at, ok)
			}
		}
		if level < 0 {
			continue
		}
		occupied++
		if g.codec != nil {
			if code := g.codes[s*g.codec.m:][:g.codec.m]; !slices.Equal(code, pq.codes[id]) {
				return fmt.Errorf("node %d's code %v, oracle's %v", id, code, pq.codes[id])
			}
		}
		wn, ok := w.nodes[id]
		if !ok || wn.level != level || wn.deleted != g.deleted[s] {
			return fmt.Errorf("node %d (level %d, deleted %v) differs from the oracle's %+v", id, level, g.deleted[s], wn)
		}
		for l := 0; l <= level; l++ {
			list := g.links(slot, l)
			if len(list) != len(wn.links[l]) {
				return fmt.Errorf("node %d level %d has %d links, oracle %d", id, l, len(list), len(wn.links[l]))
			}
			for i, x := range list {
				refs[x]++
				if g.ids[x] != wn.links[l][i] {
					return fmt.Errorf("node %d level %d link %d names id %d, oracle %d", id, l, i, g.ids[x], wn.links[l][i])
				}
			}
		}
	}
	if occupied != len(w.nodes) {
		return fmt.Errorf("%d occupied slots, oracle has %d nodes", occupied, len(w.nodes))
	}
	for s, want := range refs {
		if g.nodes[s].refs != want {
			return fmt.Errorf("slot %d counts %d references, %d links name it", s, g.nodes[s].refs, want)
		}
	}
	return nil
}

// checkHNSW checks the node table's invariants that hold whatever the
// graph: the per-slot columns and the flat arrays span the table (PQ
// keeps no rows, and a code column only once trained), every occupied
// row equals its node's key bit for bit, no layer-0 count exceeds the stride's room, a vacant
// slot holds no node state and no links, a free slot is vacant and
// unreferenced, and every live key lies inside the box.
func checkHNSW(g *HNSW) error {
	n, rowWidth, codeWidth := len(g.nodes), g.width, 0
	if g.pq != nil {
		rowWidth = 0
	}
	if g.codec != nil {
		codeWidth = g.codec.m
	}
	if len(g.ids) != n || len(g.levels) != n || len(g.deleted) != n || len(g.rows) != n*rowWidth || len(g.codes) != n*codeWidth || len(g.links0) != n*g.stride {
		return fmt.Errorf("%d slots, but columns of %d ids, %d levels, %d flags, %d row values (width %d), %d code bytes (width %d), %d link words (stride %d)",
			n, len(g.ids), len(g.levels), len(g.deleted), len(g.rows), rowWidth, len(g.codes), codeWidth, len(g.links0), g.stride)
	}
	for s, node := range g.nodes {
		count := g.links0[s*g.stride]
		if count < 0 || int(count) > 2*g.cfg.M+1 {
			return fmt.Errorf("slot %d counts %d layer-0 links, room for %d", s, count, 2*g.cfg.M+1)
		}
		if g.levels[s] < 0 {
			if count != 0 || node.upper != nil || node.vec != nil || g.deleted[s] {
				return fmt.Errorf("vacant slot %d still holds a node's state (%d layer-0 links)", s, count)
			}
			continue
		}
		if len(node.upper) != int(g.levels[s]) {
			return fmt.Errorf("slot %d at level %d has %d upper link lists", s, g.levels[s], len(node.upper))
		}
		if !g.deleted[s] {
			if err := inBox(g, s); err != nil {
				return err
			}
		}
		if g.pq != nil {
			continue
		}
		if row := g.rows[s*g.width:][:g.width]; !sameBits(row, node.vec) {
			return fmt.Errorf("slot %d's row %v is not its key %v", s, row, node.vec)
		}
	}
	for _, s := range g.free {
		if g.levels[s] >= 0 || g.nodes[s].refs != 0 {
			return fmt.Errorf("free slot %d is occupied or referenced (level %d, refs %d)", s, g.levels[s], g.nodes[s].refs)
		}
	}
	if len(g.slotOf)+len(g.free) != n {
		return fmt.Errorf("%d mapped + %d free slots, table has %d", len(g.slotOf), len(g.free), n)
	}
	return nil
}

// inBox checks that the key in slot s lies inside the box, a NaN
// coordinate excepted.
func inBox(g *HNSW, s int) error {
	key := g.nodes[s].vec
	for a, x := range key {
		if x < g.lo[a] || x > g.hi[a] {
			return fmt.Errorf("slot %d's key %v lies outside the box on axis %d: %v not in [%v, %v]", s, key, a, x, g.lo[a], g.hi[a])
		}
	}
	return nil
}

// TestHNSWGraphCheckCatchesScribbles: the check TestHNSWMatchesOracle
// runs after every operation must fail on a row one ulp off its node's
// key, on a layer-0 count one too high in a live slot and on one in a
// vacant slot, and on a box one ulp too tight for a live key, each on its
// own, and pass again once each is undone.
func TestHNSWGraphCheckCatchesScribbles(t *testing.T) {
	d := newDiffRun(t, KindHNSW, 64, 2)
	for len(d.live) < 300 {
		d.insert(d.next)
		d.next++
	}
	for i := 0; i < 60; i++ {
		d.remove(d.live[d.rng.Intn(len(d.live))])
	}
	if err := d.sameGraph(); err != nil {
		t.Fatal(err)
	}
	g := d.got
	live, empty := g.slotOf[d.live[0]], int32(-1)
	for s, level := range g.levels {
		if level < 0 {
			empty = int32(s)
			break
		}
	}
	if empty < 0 {
		t.Fatal("no vacant slot after 60 removals")
	}
	mustFail := func(what string, scribble, undo func()) {
		scribble()
		if err := d.sameGraph(); err == nil {
			t.Errorf("the check passed %s", what)
		} else {
			t.Logf("%s: %v", what, err)
		}
		undo()
	}
	row := g.rows[int(live)*g.width:][:g.width]
	saved := row[3]
	mustFail("a row one ulp off its key",
		func() { row[3] = math.Nextafter(saved, math.Inf(1)) }, func() { row[3] = saved })
	for what, s := range map[string]int32{"a live slot's layer-0 count one too high": live, "a vacant slot counting a layer-0 link": empty} {
		count := &g.links0[int(s)*g.stride]
		mustFail(what, func() { *count++ }, func() { *count-- })
	}
	least := math.Inf(1)
	for _, id := range d.live {
		least = min(least, d.ref[id][0])
	}
	savedLo := g.lo[0]
	mustFail("a box one ulp inside a live key",
		func() { g.lo[0] = math.Nextafter(least, math.Inf(1)) }, func() { g.lo[0] = savedLo })
	if err := d.sameGraph(); err != nil {
		t.Fatalf("after undoing the scribbles: %v", err)
	}
}
