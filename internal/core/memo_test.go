package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/vec"
)

// probeOracle is the memo's differential oracle: installed as the cache's
// memoHook, it runs — for every put the memo is about to answer, under
// the same read lock — the probe Put would run without a memo,
// NearestWithin(key, c·T now), and fails the test on any difference in
// (found, id, distance bits). On one goroutine the tuner cannot move
// between the put's read and the hook, so the radius the memo answers
// for must be exactly searchRadius of the threshold now; with others
// tuning concurrently only the answer for that radius is checked. With
// use false it also vetoes the memo, which turns the cache into its own
// reference: every put probes.
type probeOracle struct {
	t          *testing.T
	use        bool
	concurrent bool
	mu         sync.Mutex
	uses       int
}

func (o *probeOracle) hook(ki *keyIndex, key vec.Vector, m memoAnswer) bool {
	if r := searchRadius(ki.tuner.Threshold()); !o.concurrent && m.radius != r {
		o.t.Errorf("%s: memo answers for radius %v, the threshold's is %v", ki.spec.Index, m.radius, r)
	}
	n, _, ok := ki.idx.NearestWithin(key, m.radius)
	if ok != m.found || (ok && (n.ID != m.nid || math.Float64bits(n.Dist) != math.Float64bits(m.dist))) {
		o.t.Errorf("%s: memo answers (%d, %v, %v) within %v for %v, a probe (%d, %v, %v)",
			ki.spec.Index, m.nid, m.dist, m.found, m.radius, key, n.ID, n.Dist, ok)
	}
	o.mu.Lock()
	o.uses++
	o.mu.Unlock()
	return o.use
}

// memoStream drives one seeded, single-threaded stream over one cache or
// over two in lockstep. Lookups that miss are parked and put later, in
// any order, the way several callers computing at once would: between a
// miss and its put the stream inserts, evicts (capacity 40), expires,
// invalidates, bars an application, re-registers and restores. Keys sit
// on a coarse grid, so duplicates and distance ties are common.
type memoStream struct {
	t       *testing.T
	rng     *rand.Rand
	clk     *clock.Virtual
	kind    index.Kind
	caches  []*Cache
	pending []parkedPut
}

type parkedPut struct {
	a, b  vec.Vector
	value string
	app   string
}

var memoApps = []string{"lens", "arcv", "maps", "bad"}

func newMemoStream(t *testing.T, kind index.Kind, lookupK int, seed int64, oracles ...*probeOracle) *memoStream {
	s := &memoStream{t: t, rng: rand.New(rand.NewSource(seed)), clk: clock.NewVirtual(time.Unix(1000, 0)), kind: kind}
	for _, o := range oracles {
		c := New(Config{
			Clock: s.clk, MaxEntries: 40, DropoutRate: 0.1, Seed: seed, LookupK: lookupK,
			DefaultTTL: time.Minute, Tuner: TunerConfig{WarmupZ: 10}, Reputation: &ReputationConfig{Penalty: 0.1},
		})
		c.memoHook = o.hook
		s.caches = append(s.caches, c)
	}
	s.register()
	return s
}

func (s *memoStream) register() {
	for _, c := range s.caches {
		if err := c.RegisterFunction("f",
			KeyTypeSpec{Name: "a", Index: s.kind, Dim: 3},
			KeyTypeSpec{Name: "b", Index: s.kind, Dim: 2, Metric: vec.ManhattanMetric{}},
		); err != nil {
			s.t.Fatal(err)
		}
	}
}

func (s *memoStream) keys() (a, b vec.Vector) {
	a = vec.Vector{float64(s.rng.Intn(5)), float64(s.rng.Intn(5)), float64(s.rng.Intn(3))}
	if s.rng.Intn(4) == 0 {
		a[0] += 0.5 // equidistant from two grid values
	}
	return a, vec.Vector{a[0], a[1]}
}

// same fails the test unless every cache of the stream returned the same.
func (s *memoStream) same(op string, got []any) {
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[0], got[i]) {
			s.t.Fatalf("%s: with the memo %+v, probing %+v", op, got[0], got[i])
		}
	}
}

func (s *memoStream) lookup() {
	a, b := s.keys()
	kt, key := "a", a
	if s.rng.Intn(3) == 0 {
		kt, key = "b", b
	}
	var got []any
	var hit bool
	for _, c := range s.caches {
		res, err := c.Lookup("f", kt, key)
		if err != nil {
			s.t.Fatal(err)
		}
		hit = res.Hit
		got = append(got, []any{res.Hit, res.Dropout, res.Value, res.Distance, res.Threshold, res.Entry.id})
	}
	s.same("lookup", got)
	if hit {
		return
	}
	app := memoApps[s.rng.Intn(len(memoApps))]
	value := fmt.Sprint("v", int(a[0])/2)
	if app == "bad" {
		value = fmt.Sprint("junk", s.rng.Intn(3)) // pollutes until barred
	}
	s.pending = append(s.pending, parkedPut{a: a, b: b, value: value, app: app})
	if len(s.pending) > 6 || s.rng.Intn(3) == 0 {
		s.putParked()
	}
}

func (s *memoStream) putParked() {
	if len(s.pending) == 0 {
		return
	}
	i := s.rng.Intn(len(s.pending))
	p := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.put(p)
}

func (s *memoStream) put(p parkedPut) {
	ttl := time.Duration(5+s.rng.Intn(60)) * time.Second
	var got []any
	for _, c := range s.caches {
		id, err := c.Put("f", PutRequest{
			Keys: map[string]vec.Vector{"a": p.a, "b": p.b}, Value: p.value, App: p.app,
			Cost: 10 * time.Millisecond, Size: 16, TTL: ttl,
		})
		if err != nil && !errors.Is(err, ErrAppBarred) {
			s.t.Fatal(err)
		}
		got = append(got, []any{id, err != nil})
	}
	s.same("put", got)
}

func (s *memoStream) step() {
	switch r := s.rng.Intn(100); {
	case r < 50:
		s.lookup()
	case r < 68:
		s.putParked()
	case r < 74: // a put no lookup preceded
		a, b := s.keys()
		s.put(parkedPut{a: a, b: b, value: "blind", app: "maps"})
	case r < 82:
		s.clk.Advance(time.Duration(s.rng.Intn(15)) * time.Second)
	case r < 87:
		a, b := s.keys()
		kt, key := "a", a
		if s.rng.Intn(2) == 0 {
			kt, key = "b", b
		}
		radius := s.rng.Float64() * 1.5
		var got []any
		for _, c := range s.caches {
			n, err := c.InvalidateRadius("f", kt, key, radius)
			if err != nil {
				s.t.Fatal(err)
			}
			got = append(got, n)
		}
		s.same("invalidate radius", got)
	case r < 88:
		for _, c := range s.caches {
			if _, err := c.InvalidateFunction("f"); err != nil {
				s.t.Fatal(err)
			}
		}
	case r < 91:
		s.register() // resets the tuners
	case r < 93:
		for _, c := range s.caches {
			c.PurgeExpired()
		}
	case r < 95: // a second restore of a capture whose entries are all live
		for _, c := range s.caches {
			state := c.CaptureState()
			st, err := c.Restore(state)
			if err != nil {
				s.t.Fatal(err)
			}
			if st.Entries != 0 || st.Skipped != len(state.Entries) || c.Len() != len(state.Entries) {
				s.t.Fatalf("second restore of %d live entries: %+v, Len %d", len(state.Entries), st, c.Len())
			}
		}
	case r < 97: // durable restore under the original ids
		for _, c := range s.caches {
			state := c.CaptureState()
			if _, err := c.InvalidateFunction("f"); err != nil {
				s.t.Fatal(err)
			}
			if _, err := c.Restore(state); err != nil {
				s.t.Fatal(err)
			}
		}
	default:
		for _, c := range s.caches {
			for _, app := range memoApps {
				c.Reputation().Unbar(app)
			}
		}
	}
}

// state is everything the memo could have disturbed: tuners, reputation
// table, counters and the live entries.
func (s *memoStream) state(c *Cache) []any {
	out := []any{c.Stats(), c.Reputation().Snapshot()}
	for _, kt := range []string{"a", "b"} {
		ts, err := c.TunerStats("f", kt)
		if err != nil {
			s.t.Fatal(err)
		}
		out = append(out, ts)
	}
	ids := map[ID]string{}
	c.entries.forEach(func(e *entry) bool {
		ids[e.id] = fmt.Sprint(e.value, e.app, e.expiresAt.UnixNano(), e.accessCount.Load())
		return true
	})
	return append(out, ids)
}

func memoStats(c *Cache) (total PutNeighborStats) {
	for _, fs := range c.FunctionStats() {
		for _, ks := range fs.KeyTypes {
			p := ks.PutNeighbor
			total.Memo += p.Memo
			total.ProbeAbsent += p.ProbeAbsent
			total.ProbeStale += p.ProbeStale
			total.ProbeOverflow += p.ProbeOverflow
			total.Replayed += p.Replayed
		}
	}
	return total
}

// TestMemoMatchesProbe is oracle (b): every memo answer of the stream is
// checked against the probe it replaces, for the exact kinds (replay), an
// approximate one (unchanged epoch only) and a k > 1 lookup (no memo).
func TestMemoMatchesProbe(t *testing.T) {
	// HNSW at this scale spends its time re-linking after removals; its
	// streams are shorter.
	for _, tc := range []struct {
		kind       index.Kind
		k          int
		seeds, ops int
	}{
		{index.KindKDTree, 1, 4, 3000}, {index.KindLinear, 1, 4, 3000}, {index.KindHNSW, 1, 1, 2500},
		{index.KindKDTree, 3, 2, 1500}, {index.KindLinear, 3, 2, 1500}, {index.KindHNSW, 3, 1, 600},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/k%d", tc.kind, tc.k), func(t *testing.T) {
			var total PutNeighborStats
			uses := 0
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				o := &probeOracle{t: t, use: true}
				s := newMemoStream(t, tc.kind, tc.k, seed, o)
				for i := 0; i < tc.ops && !t.Failed(); i++ {
					s.step()
				}
				st := memoStats(s.caches[0])
				total.Memo += st.Memo
				total.ProbeAbsent += st.ProbeAbsent
				total.ProbeStale += st.ProbeStale
				total.Replayed += st.Replayed
				uses += o.uses
			}
			t.Logf("%+v", total)
			if int64(uses) != total.Memo {
				t.Errorf("oracle saw %d memo answers, the counter %d", uses, total.Memo)
			}
			switch {
			case tc.k > 1:
				if total.Memo != 0 {
					t.Errorf("a k=%d lookup left %d memos", tc.k, total.Memo)
				}
			case tc.kind == index.KindHNSW:
				if total.Memo < 30 || total.Replayed != 0 || total.ProbeStale == 0 {
					t.Errorf("hnsw must use memos at an unchanged epoch only: %+v", total)
				}
			default:
				// The stream must reach every branch of replay.
				if total.Memo < 1000 || total.Replayed < 1000 || total.ProbeStale == 0 || total.ProbeAbsent == 0 {
					t.Errorf("stream too tame to prove anything: %+v", total)
				}
			}
		})
	}
}

// TestMemoChangesNothing is oracle (c): the same stream on two caches in
// lockstep, one answering puts from the memo, one made to probe every
// time. Every lookup result and put id must agree as they go, and tuner
// state, reputation table, Stats and live entries after every op.
func TestMemoChangesNothing(t *testing.T) {
	for _, kind := range []index.Kind{index.KindKDTree, index.KindLinear} {
		for seed := int64(1); seed <= 3; seed++ {
			with, without := &probeOracle{t: t, use: true}, &probeOracle{t: t, use: false}
			s := newMemoStream(t, kind, 1, seed, with, without)
			for i := 0; i < 2500 && !t.Failed(); i++ {
				s.step()
				if a, b := s.state(s.caches[0]), s.state(s.caches[1]); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s seed %d op %d: state with the memo\n%+v\nprobing\n%+v", kind, seed, i, a, b)
				}
			}
			a, b := memoStats(s.caches[0]), memoStats(s.caches[1])
			if a.Memo < 150 || b.Memo != 0 {
				t.Fatalf("%s seed %d: memo answered %d puts on one side and %d on the other", kind, seed, a.Memo, b.Memo)
			}
		}
	}
}

// TestMemoMatchesProbeConcurrently is oracle (b) with eight callers on
// one cache at capacity: every put inserts and evicts between another
// caller's miss and its put. Run it under -race.
func TestMemoMatchesProbeConcurrently(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	c := New(Config{Clock: clk, MaxEntries: 64, DropoutRate: 0.1, Seed: 3, Tuner: TunerConfig{WarmupZ: 10}, DefaultTTL: 30 * time.Second})
	o := &probeOracle{t: t, use: true, concurrent: true}
	c.memoHook = o.hook
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1500; i++ {
				key := vec.Vector{float64(rng.Intn(12)), float64(rng.Intn(12)), float64(rng.Intn(4))}
				switch r := rng.Intn(40); {
				case r == 0:
					clk.Advance(time.Second)
				case r == 1:
					c.InvalidateRadius("f", "a", key, 1)
				default:
					res, err := c.Lookup("f", "a", key)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Hit {
						continue
					}
					runtime.Gosched() // "compute": let the others at the index
					if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": key}, Value: int(key[0]) / 3, Size: 8}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := memoStats(c)
	t.Logf("%+v", st)
	if st.Memo < 1000 || st.Replayed == 0 {
		t.Errorf("eight callers barely used the memo: %+v", st)
	}
}

// TestMemoPathsDoNotAllocate: the memo's write on a miss reuses its
// slot's key buffer, and a put's neighbour step answered by the memo —
// recall, replay of the mutations since, counters — allocates nothing.
func TestMemoPathsDoNotAllocate(t *testing.T) {
	for _, dim := range []int{16, 768} {
		c := New(Config{DisableDropout: true, MaxEntries: 64})
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: dim}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		point := func() vec.Vector {
			v := make(vec.Vector, dim)
			for i := range v {
				v[i] = rng.NormFloat64() * 100
			}
			return v
		}
		for i := 0; i < 64; i++ {
			if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": point()}, Value: i, Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
		ki, err := c.keyIndexFor("f", "a")
		if err != nil {
			t.Fatal(err)
		}
		q := point()
		if allocs := testing.AllocsPerRun(100, func() {
			if res, _ := c.Lookup("f", "a", q); res.Hit {
				t.Fatal("expected a miss")
			}
		}); allocs != 0 {
			t.Errorf("dim %d: a lookup miss allocates %v times, want 0", dim, allocs)
		}
		// Four mutations between the miss and the put, so the step replays.
		for i := 0; i < 2; i++ {
			if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": point()}, Value: i, Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
		before := ki.memoCtr.stats()
		if allocs := testing.AllocsPerRun(100, func() { c.putNeighbor(ki, q, math.Inf(1)) }); allocs != 0 {
			t.Errorf("dim %d: the memo-answered neighbour step allocates %v times, want 0", dim, allocs)
		}
		after := ki.memoCtr.stats()
		if after.Memo-before.Memo != 101 || after.Replayed-before.Replayed != 4*101 {
			t.Errorf("dim %d: neighbour step not answered by a replaying memo: %+v → %+v", dim, before, after)
		}
	}
}

// TestMemoSlotsSpread: keys that differ only in the exponent and top
// mantissa bits (small integers) must not share a slot, or a table of 64
// is a table of one.
func TestMemoSlotsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, coord := range map[string]func() float64{
		"grid":     func() float64 { return float64(rng.Intn(12)) },
		"gaussian": func() float64 { return rng.NormFloat64() * 100 },
	} {
		for _, dim := range []int{1, 3, 16} {
			var used [memoSlots]int
			for i := 0; i < 20*memoSlots; i++ {
				key := make(vec.Vector, dim)
				for d := range key {
					key[d] = coord()
				}
				used[slotOf(key)]++
			}
			most, empty := 0, 0
			for _, n := range used {
				if n > most {
					most = n
				}
				if n == 0 {
					empty++
				}
			}
			// 12 distinct keys at dim 1; everywhere else a fair spread
			// fills every slot and no slot holds thrice its share.
			if dim > 1 && (empty > 0 || most > 60) {
				t.Errorf("%s keys, dim %d: %d of %d slots empty, fullest holds %d of %d keys", name, dim, empty, memoSlots, most, 20*memoSlots)
			}
		}
	}
}

// TestMemoOverflowProbes: a memo further behind than the mutation log is
// long is not replayed.
func TestMemoOverflowProbes(t *testing.T) {
	c := New(Config{DisableDropout: true})
	o := &probeOracle{t: t, use: true}
	c.memoHook = o.hook
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	put := func(x float64) {
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": {x, 0}}, Value: x}); err != nil {
			t.Fatal(err)
		}
	}
	put(1000)
	q := vec.Vector{0, 0}
	if res, _ := c.Lookup("f", "a", q); res.Hit {
		t.Fatal("expected a miss")
	}
	for i := 0; i < mutationLog; i++ {
		put(float64(2000 + i))
	}
	ki, _ := c.keyIndexFor("f", "a")
	if _, _, ok := c.putNeighbor(ki, q, math.Inf(1)); !ok || ki.memoCtr.stats().Memo != 1 {
		t.Fatalf("a memo exactly one log behind must still replay: %+v", ki.memoCtr.stats())
	}
	put(5000)
	if id, dist, ok := c.putNeighbor(ki, q, math.Inf(1)); !ok || id != 1 || dist != 1000 {
		t.Fatalf("neighbour (%d, %v, %v), want entry 1 at 1000", id, dist, ok)
	}
	if st := ki.memoCtr.stats(); st.ProbeOverflow != 1 || st.Memo != 1 {
		t.Fatalf("want one overflow and one memo answer, got %+v", st)
	}
}

// TestMemoUnderTheBound walks the memo through the search radius moving
// under it, on a k-d tree of 2-dim keys along one axis, with the oracle
// checking every memo answer against NearestWithin(key, c·T now).
func TestMemoUnderTheBound(t *testing.T) {
	setup := func(t *testing.T) (*Cache, *keyIndex) {
		c := New(Config{DisableDropout: true})
		c.memoHook = (&probeOracle{t: t, use: true}).hook
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Dim: 2}); err != nil {
			t.Fatal(err)
		}
		ki, err := c.keyIndexFor("f", "a")
		if err != nil {
			t.Fatal(err)
		}
		return c, ki
	}
	put := func(t *testing.T, c *Cache, x float64, value string) {
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": {x, 0}}, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	miss := func(t *testing.T, c *Cache, x, dist float64) {
		if res, err := c.Lookup("f", "a", vec.Vector{x, 0}); err != nil || res.Hit || res.Distance != dist {
			t.Fatalf("lookup %v: %+v %v, want a miss at distance %v", x, res, err, dist)
		}
	}
	tuner := func(c *Cache) TunerStats {
		ts, _ := c.TunerStats("f", "a")
		return ts
	}
	// loosened is Algorithm 1's EWMA at the default γ, in float64 as the
	// tuner computes it.
	loosened := func(dist, threshold float64) float64 {
		gamma := 0.8
		return (1-gamma)*dist + gamma*threshold
	}

	t.Run("threshold grows between lookup and put", func(t *testing.T) {
		c, ki := setup(t)
		put(t, c, 0, "x")
		c.ForceThreshold("f", "a", 1)
		miss(t, c, 10, -1) // nothing within 4
		c.ForceThreshold("f", "a", 5)
		// The memo searched 4 and found nothing; within 20 the entry at 10
		// may lie, so the put probes, finds it and loosens toward it.
		put(t, c, 10, "x")
		if st := ki.memoCtr.stats(); st.ProbeStale != 1 || st.Memo != 0 {
			t.Errorf("a memo that found nothing within a smaller radius answered: %+v", st)
		}
		if ts := tuner(c); ts.Threshold != loosened(10, 5) || ts.Loosenings != 1 {
			t.Errorf("the probe within 20 did not feed the neighbour at 10: %+v", ts)
		}
		// The other way: the memo found 13 at 3 within 4·1.5, and the
		// threshold fell to 0.5: within 2 there is nothing.
		put(t, c, 13, "y")
		c.ForceThreshold("f", "a", 1.5)
		miss(t, c, 16, 3)
		c.ForceThreshold("f", "a", 0.5)
		if _, _, ok := c.putNeighbor(ki, vec.Vector{16, 0}, searchRadius(0.5)); ok || ki.memoCtr.stats().Memo != 1 {
			t.Errorf("memo neighbour beyond the shrunken radius: ok %v, %+v", ok, ki.memoCtr.stats())
		}
	})

	t.Run("insert lands beyond R after the miss", func(t *testing.T) {
		c, ki := setup(t)
		put(t, c, 0, "a")
		c.ForceThreshold("f", "a", 1)
		miss(t, c, 10, -1)
		put(t, c, 15, "b") // nearer than 0 to 10, but 5 away: beyond 4
		q := vec.Vector{10, 0}
		if _, _, ok := c.putNeighbor(ki, q, searchRadius(1)); ok {
			t.Error("the replay took an insert beyond the radius")
		}
		put(t, c, 12, "c") // 2 away: within
		if id, dist, ok := c.putNeighbor(ki, q, searchRadius(1)); !ok || id != 3 || dist != 2 {
			t.Errorf("neighbour (%d, %v, %v), want entry 3 at 2", id, dist, ok)
		}
		if st := ki.memoCtr.stats(); st.Memo != 2 || st.Replayed != 1+2 {
			t.Errorf("want both answers replayed from the memo: %+v", st)
		}
		if ts := tuner(c); ts.Threshold != 1 {
			t.Errorf("different-valued neighbours moved the threshold: %+v", ts)
		}
	})

	t.Run("active tuner at zero still loosens", func(t *testing.T) {
		c, _ := setup(t)
		put(t, c, 0, "x")
		c.ForceThreshold("f", "a", 0)
		miss(t, c, 10, 10) // unbounded at T = 0
		put(t, c, 10, "x")
		if ts := tuner(c); ts.Threshold != loosened(10, 0) || ts.Loosenings != 1 {
			t.Errorf("a same-valued neighbour at 10 did not loosen a zero threshold: %+v", ts)
		}
	})
}

// TestMemoRadiusMovesUnderHNSW: HNSW stops its search once it holds an
// answer within the radius, so what it finds within one radius is not
// always what it finds within another. On a small, loosely linked graph
// over overlapping clusters the threshold is moved between each lookup
// and the put for its key, with no mutation in between: the memo must
// answer only what a probe at the put's radius answers (the oracle checks
// each), which leaves it a neighbour it found only at the radius it
// searched, and "nothing" only at a radius no larger.
func TestMemoRadiusMovesUnderHNSW(t *testing.T) {
	c := New(Config{DisableDropout: true, IndexOptions: index.Options{HNSW: index.HNSWConfig{M: 4, EfConstruction: 16, EfSearch: 8}}})
	c.memoHook = (&probeOracle{t: t, use: true}).hook
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "a", Index: index.KindHNSW, Dim: 8}); err != nil {
		t.Fatal(err)
	}
	ki, err := c.keyIndexFor("f", "a")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	centres := make([]vec.Vector, 40)
	for i := range centres {
		centres[i] = make(vec.Vector, 8)
		for d := range centres[i] {
			centres[i][d] = rng.NormFloat64() * 100
		}
	}
	around := func(c vec.Vector, sigma float64) vec.Vector {
		v := c.Clone()
		for d := range v {
			v[d] += rng.NormFloat64() * sigma
		}
		return v
	}
	var corpus []vec.Vector
	for i := 0; i < 3000; i++ {
		k := around(centres[rng.Intn(len(centres))], 30)
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"a": k}, Value: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, k)
	}
	thresholds := []float64{1.25, 2.5, 5, 10, 15, 25}
	for i := 0; i < 2000 && !t.Failed(); i++ {
		q := around(corpus[rng.Intn(len(corpus))], 20)
		c.ForceThreshold("f", "a", thresholds[rng.Intn(len(thresholds))])
		if res, err := c.Lookup("f", "a", q); err != nil || res.Hit {
			continue
		}
		moved := thresholds[rng.Intn(len(thresholds))]
		c.ForceThreshold("f", "a", moved)
		c.putNeighbor(ki, q, searchRadius(moved))
	}
	st := ki.memoCtr.stats()
	t.Logf("%+v", st)
	if st.Memo < 100 || st.ProbeStale < 100 {
		t.Errorf("too few memo answers or stale memos to show anything: %+v", st)
	}
}

// TestOneDoorToTheIndex parses the package's non-test files and fails on
// any mutation of a key index's idx or members outside keyIndex.insert
// and keyIndex.remove: a mutation that skipped the epoch and the log
// would let a stale memo pass for current.
func TestOneDoorToTheIndex(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	doors := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			door := fn.Recv != nil && (fn.Name.Name == "insert" || fn.Name.Name == "remove") && name == "memo.go"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var what string
				switch x := n.(type) {
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Insert" || sel.Sel.Name == "Remove") && selects(sel.X, "idx") {
						what = "idx." + sel.Sel.Name
					}
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 && selects(x.Args[0], "members") {
						what = "delete(members)"
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if ix, ok := lhs.(*ast.IndexExpr); ok && selects(ix.X, "members") {
							what = "members[...] ="
						}
					}
				}
				if what == "" {
					return true
				}
				if door {
					doors++
				} else {
					t.Errorf("%s: %s in %s: key indices are mutated only by keyIndex.insert and keyIndex.remove", fset.Position(n.Pos()), what, fn.Name.Name)
				}
				return true
			})
		}
	}
	if doors != 4 {
		t.Errorf("found %d index mutations inside insert and remove, want 4: has the door moved?", doors)
	}
}

// selects reports whether e is a selector expression ending in .name.
func selects(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
