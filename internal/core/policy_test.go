package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

func TestNewPolicy(t *testing.T) {
	for _, k := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyRandom, PolicyFIFO} {
		p, err := NewPolicy(k, 1)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", k, err)
		}
		if p.Name() != k {
			t.Errorf("Name = %s, want %s", p.Name(), k)
		}
	}
	if p, err := NewPolicy("", 1); err != nil || p.Name() != PolicyImportance {
		t.Errorf("default policy: %v, %v", p, err)
	}
	if _, err := NewPolicy("bogus", 1); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestFloatScoreKeepsOrder(t *testing.T) {
	fs := []float64{math.Inf(-1), -1e300, -2, -1e-300, 0, 5e-324, 1e-9, 0.005, 0.01, 1, 100, 1e300, math.Inf(1)}
	for i := 1; i < len(fs); i++ {
		if !(FloatScore(fs[i-1]) < FloatScore(fs[i])) {
			t.Errorf("FloatScore(%g) !< FloatScore(%g)", fs[i-1], fs[i])
		}
	}
}

func TestImportanceZeroSize(t *testing.T) {
	m := Meta{Cost: time.Second, AccessCount: 2}
	if got := m.Importance(); got != 2 {
		t.Errorf("Importance with size 0 = %v, want cost*freq/1 = 2", got)
	}
}

// scanVictim is the whole-table scan the victim heap replaced, kept as
// the oracle: the heap must evict exactly the entry a scan would pick,
// the id tie-break included.
var scanVictim = map[PolicyKind]func(entries []*entry) ID{
	PolicyImportance: func(entries []*entry) ID {
		best := entries[0]
		bestImp := best.meta().Importance()
		for _, e := range entries[1:] {
			if imp := e.meta().Importance(); imp < bestImp || (imp == bestImp && e.id < best.id) {
				best, bestImp = e, imp
			}
		}
		return best.id
	},
	PolicyLRU: func(entries []*entry) ID {
		best := entries[0]
		bestLast := best.lastAccess.Load()
		for _, e := range entries[1:] {
			if last := e.lastAccess.Load(); last < bestLast ||
				(last == bestLast && e.id < best.id) {
				best, bestLast = e, last
			}
		}
		return best.id
	},
	PolicyFIFO: func(entries []*entry) ID {
		best := entries[0]
		for _, e := range entries[1:] {
			if e.insertedAt.Before(best.insertedAt) ||
				(e.insertedAt.Equal(best.insertedAt) && e.id < best.id) {
				best = e
			}
		}
		return best.id
	},
}

// deleteLog is a Store that records tombstones, which the cache writes
// in victim order.
type deleteLog struct{ ids []ID }

func (*deleteLog) LogRegister(string, []StoreKeyType) {}
func (*deleteLog) LogPut(StoreEntry)                  {}
func (l *deleteLog) LogDelete(id uint64)              { l.ids = append(l.ids, ID(id)) }

// checkHeaps asserts the invariant admitMu maintains: the entry table,
// the victim heap, the expiry heap and the entry count hold the same
// set, and every heap slot points back at its own position.
func checkHeaps(t *testing.T, c *Cache) {
	t.Helper()
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	table := 0
	c.entries.forEach(func(*entry) bool { table++; return true })
	if v, x, n := c.victims.Len(), c.expiry.Len(), c.Len(); v != n || x != n || table != n {
		t.Fatalf("victim heap %d, expiry heap %d, table %d, Len %d: want all equal", v, x, table, n)
	}
	for i := 0; i < c.victims.Len(); i++ {
		if e := c.victims.At(i); c.entries.load(e.id) != e || e.victimSlot != i+1 {
			t.Fatalf("victim heap slot %d: entry %d live=%v slot=%d", i, e.id, c.entries.load(e.id) == e, e.victimSlot)
		}
		if e := c.expiry.At(i); c.entries.load(e.id) != e || e.expirySlot != i+1 {
			t.Fatalf("expiry heap slot %d: entry %d live=%v slot=%d", i, e.id, c.entries.load(e.id) == e, e.expirySlot)
		}
	}
	for _, h := range []*Heap[*entry]{&c.victims, &c.expiry} {
		for i := 1; i < h.Len(); i++ {
			if h.items[i].less(h.items[(i-1)/2]) {
				t.Fatalf("heap order broken at %d", i)
			}
		}
	}
}

// TestVictimsMatchScan drives seeded random sequences of put, hit,
// invalidate, expire and evict through the cache on a virtual clock and
// checks every eviction, victim by victim, against the scan oracle run
// on the same live set — for each policy, bound by entries and by bytes.
// Costs and sizes come from small sets and the clock often stands still,
// so score ties (and the id tie-break) occur throughout.
func TestVictimsMatchScan(t *testing.T) {
	bounds := []struct {
		name string
		cfg  Config
	}{
		{"entries", Config{MaxEntries: 24}},
		{"bytes", Config{MaxBytes: 1500}},
	}
	for _, pol := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyFIFO, PolicyRandom} {
		for _, bound := range bounds {
			t.Run(fmt.Sprintf("%s/%s", pol, bound.name), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					diffVictims(t, pol, bound.cfg, seed)
				}
			})
		}
	}
}

func diffVictims(t *testing.T, pol PolicyKind, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewVirtual(time.Unix(1000, 0))
	log := &deleteLog{}
	cfg.Clock, cfg.Policy, cfg.Seed, cfg.Store = clk, pol, seed, log
	cfg.DisableDropout = true
	cfg.Tuner = TunerConfig{WarmupZ: 1}
	c := New(cfg)
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	pin := func() {
		if err := c.ForceThreshold("f", "k", 0.25); err != nil {
			t.Fatal(err)
		}
	}
	pin()
	live := func() []*entry {
		var es []*entry
		c.entries.forEach(func(e *entry) bool { es = append(es, e); return true })
		return es
	}
	evictions := 0
	nextKey := 0.0
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // put: predict the victims with the scan, then compare
			c.PurgeExpired()
			size := 16 << rng.Intn(4)
			cands := live()
			count, bytes := int64(len(cands)+1), c.Bytes()+int64(size)
			over := func() bool {
				return (cfg.MaxEntries > 0 && count > int64(cfg.MaxEntries)) ||
					(cfg.MaxBytes > 0 && bytes > cfg.MaxBytes)
			}
			var want []ID
			for len(cands) > 0 && over() && pol != PolicyRandom {
				v := scanVictim[pol](cands)
				want = append(want, v)
				for i, e := range cands {
					if e.id == v {
						count, bytes = count-1, bytes-int64(e.size)
						cands = append(cands[:i], cands[i+1:]...)
						break
					}
				}
			}
			before := live()
			log.ids = log.ids[:0]
			nextKey++
			if _, err := c.Put("f", PutRequest{
				Keys:  map[string]vec.Vector{"k": {nextKey}},
				Value: op,
				Cost:  time.Duration(rng.Intn(4)) * time.Millisecond,
				Size:  size,
				TTL:   time.Duration(60+rng.Intn(600)) * time.Second,
			}); err != nil {
				t.Fatal(err)
			}
			pin()
			evictions += len(log.ids)
			if pol == PolicyRandom {
				wasLive := make(map[ID]bool, len(before))
				for _, e := range before {
					wasLive[e.id] = true
				}
				for _, id := range log.ids {
					if !wasLive[id] {
						t.Fatalf("seed %d op %d: random victim %d was not live", seed, op, id)
					}
					delete(wasLive, id)
				}
			} else if fmt.Sprint(log.ids) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d: heap evicted %v, scan picks %v", seed, op, log.ids, want)
			}
		case r < 8: // hit a recent key (a miss if it is already gone)
			if _, err := c.Lookup("f", "k", vec.Vector{nextKey - float64(rng.Intn(30))}); err != nil {
				t.Fatal(err)
			}
		case r < 9:
			if _, err := c.InvalidateRadius("f", "k", vec.Vector{nextKey - float64(rng.Intn(30))}, 1.5); err != nil {
				t.Fatal(err)
			}
		default: // let entries expire; most ops share a timestamp
			clk.Advance(time.Duration(rng.Intn(60)) * time.Second)
		}
		checkHeaps(t, c)
	}
	if evictions < 50 {
		t.Fatalf("seed %d: only %d evictions; the sequence does not exercise the policy", seed, evictions)
	}
}

// TestRandomVictimUniform: the random policy draws a uniform slot of the
// victim heap's array. 16 000 draws over 16 entries, chi-square with 15
// degrees of freedom (37.7 is the p = 0.001 critical value).
func TestRandomVictimUniform(t *testing.T) {
	c := New(Config{Policy: PolicyRandom, Seed: 7, DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	const n, draws = 16, 16000
	for i := 0; i < n; i++ {
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {float64(i)}}, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[ID]int)
	c.admitMu.Lock()
	for i := 0; i < draws; i++ {
		counts[Victim(c.policy, &c.victims, (*entry).meta).id]++
	}
	c.admitMu.Unlock()
	if len(counts) != n {
		t.Fatalf("drew %d distinct victims of %d", len(counts), n)
	}
	chi2, expect := 0.0, float64(draws)/n
	for _, k := range counts {
		chi2 += (float64(k) - expect) * (float64(k) - expect) / expect
	}
	if chi2 > 37.7 {
		t.Errorf("chi-square %.1f over %d slots: draws are not uniform (%v)", chi2, n, counts)
	}
}

// TestVictimExaminationsScale is the deterministic guard against a
// regression to a per-victim walk: under a one-hit-per-put mix the mean
// number of candidates rescored per victim must stay below 4·log2(n),
// where a scan examines n. No clocks involved, so it holds on any host.
func TestVictimExaminationsScale(t *testing.T) {
	for _, n := range []int{256, 16384} {
		for _, pol := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyFIFO} {
			t.Run(fmt.Sprintf("%s/%d", pol, n), func(t *testing.T) {
				clk := clock.NewVirtual(time.Unix(0, 0))
				c := New(Config{Clock: clk, Policy: pol, MaxEntries: n, DisableDropout: true})
				if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 2}); err != nil {
					t.Fatal(err)
				}
				// Random keys: sequential ones degenerate the k-d tree.
				rng := rand.New(rand.NewSource(int64(n)))
				keys := make([]vec.Vector, 3*n)
				for i := range keys {
					clk.Advance(time.Millisecond)
					keys[i] = vec.Vector{rng.Float64(), rng.Float64()}
					if _, err := c.Put("f", PutRequest{
						Keys: map[string]vec.Vector{"k": keys[i]}, Value: i,
						Cost: time.Duration(1+rng.Intn(8)) * time.Millisecond,
					}); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Lookup("f", "k", keys[max(i-rng.Intn(n), 0)]); err != nil {
						t.Fatal(err)
					}
				}
				st := c.Stats()
				if st.Evictions != int64(2*n) || st.Hits < int64(n) {
					t.Fatalf("evictions %d (want %d), hits %d: the mix did not run as designed", st.Evictions, 2*n, st.Hits)
				}
				mean := float64(c.victims.examined) / float64(st.Evictions)
				if limit := 4 * math.Log2(float64(n)); mean > limit {
					t.Errorf("%.1f candidates examined per victim, limit 4·log2(%d) = %.0f", mean, n, limit)
				}
				checkHeaps(t, c)
			})
		}
	}
}

// TestRestoreLargerThanCache: restoring 20 000 entries into a cache of
// 1 000 evicts 19 000 victims in one pass. With the heap that costs one
// examination per victim (scores are static during a restore), where
// the scan cost 19 000 table walks; and the survivors are exactly the
// 1 000 most important entries.
func TestRestoreLargerThanCache(t *testing.T) {
	const n, capacity = 20000, 1000
	now := time.Unix(5000, 0)
	state := &DurableState{
		CapturedAtNanos: now.UnixNano(),
		MaxID:           n,
		Functions: []DurableFunction{{Name: "f", KeyTypes: []DurableKeyType{{
			StoreKeyType: StoreKeyType{Name: "k", Metric: "euclidean", Index: "kdtree", Dim: 1},
		}}}},
	}
	for i := 1; i <= n; i++ {
		state.Entries = append(state.Entries, StoreEntry{
			ID: uint64(i), Function: "f", CostNanos: int64(i) * int64(time.Microsecond), Size: 8,
			AccessCount: 1, InsertedAtNanos: now.UnixNano(), LastAccessNanos: now.UnixNano(),
			ExpiresAtNanos: now.Add(time.Hour).UnixNano(),
			Keys:           []StoreKey{{KeyType: "k", Key: vec.Vector{float64(i)}}},
			Value:          i,
		})
	}
	c := New(Config{Clock: clock.NewVirtual(now), MaxEntries: capacity, DisableDropout: true})
	stats, err := c.Restore(state)
	if err != nil || stats.Entries != n {
		t.Fatalf("Restore: %+v, %v", stats, err)
	}
	checkHeaps(t, c)
	if c.Len() != capacity {
		t.Fatalf("Len = %d after restore, want %d", c.Len(), capacity)
	}
	if got, victims := c.victims.examined, uint64(n-capacity); got > 2*victims {
		t.Errorf("%d candidates examined for %d victims", got, victims)
	}
	var ids []int
	c.entries.forEach(func(e *entry) bool { ids = append(ids, int(e.id)); return true })
	sort.Ints(ids)
	if ids[0] != n-capacity+1 || ids[len(ids)-1] != n {
		t.Errorf("survivors span ids %d..%d, want the most important %d..%d", ids[0], ids[len(ids)-1], n-capacity+1, n)
	}
}

// TestAdmitRacesRemoval hammers Put against every removal path at a
// tiny capacity. An entry is published to the table and pushed on the
// heaps in one admitMu section, so no invalidation or purge can remove
// an entry the heaps do not hold yet (which used to leave a dead entry
// to be pushed afterwards). Run with -race.
func TestAdmitRacesRemoval(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := New(Config{Clock: clk, MaxEntries: 8, DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	const goroutines, ops = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				key := vec.Vector{float64(rng.Intn(64))}
				switch g % 4 {
				case 0:
					c.InvalidateRadius("f", "k", key, 8)
				case 1:
					clk.Advance(time.Millisecond)
					c.PurgeExpired()
				case 2:
					if i%16 == 0 {
						c.InvalidateFunction("f")
					}
					c.removeAppEntries(fmt.Sprintf("app-%d", rng.Intn(goroutines)))
				}
				if _, err := c.Put("f", PutRequest{
					Keys: map[string]vec.Vector{"k": key}, Value: i, App: fmt.Sprintf("app-%d", g),
					TTL: time.Duration(1+rng.Intn(20)) * time.Millisecond,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkHeaps(t, c)
	if c.Len() > 8 {
		t.Errorf("Len = %d over capacity 8", c.Len())
	}
}
