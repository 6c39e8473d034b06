package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/vec"
)

// newTestCache returns a deterministic cache on a virtual clock with
// dropout disabled and no warm-up delay, so hits/misses are exact.
func newTestCache(t *testing.T, mutate ...func(*Config)) (*Cache, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	cfg := Config{
		Clock:          clk,
		DisableDropout: true,
		Tuner:          TunerConfig{WarmupZ: 1},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	return New(cfg), clk
}

func registerScalar(t *testing.T, c *Cache, fn string) {
	t.Helper()
	if err := c.RegisterFunction(fn, KeyTypeSpec{Name: "scalar"}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnknownFunction(t *testing.T) {
	c, _ := newTestCache(t)
	if _, err := c.Lookup("nope", "scalar", vec.Vector{1}); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("err = %v, want ErrUnknownFunction", err)
	}
	registerScalar(t, c, "f")
	if _, err := c.Lookup("f", "nope", vec.Vector{1}); !errors.Is(err, ErrUnknownKeyType) {
		t.Errorf("err = %v, want ErrUnknownKeyType", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	c, _ := newTestCache(t)
	if err := c.RegisterFunction(""); err == nil {
		t.Error("empty function name accepted")
	}
	if err := c.RegisterFunction("f"); err == nil {
		t.Error("no key types accepted")
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{}); err == nil {
		t.Error("empty key type name accepted")
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Index: "bogus"}); err == nil {
		t.Error("bogus index kind accepted")
	}
}

func TestPutLookupExactHit(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	key := vec.Vector{1, 2, 3}
	id, err := c.Put("f", PutRequest{
		Keys:  map[string]vec.Vector{"scalar": key},
		Value: "result",
		Cost:  time.Second,
	})
	if err != nil || id == 0 {
		t.Fatalf("Put: id=%d err=%v", id, err)
	}
	res, err := c.Lookup("f", "scalar", key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Value != "result" || res.Distance != 0 {
		t.Errorf("exact lookup = %+v", res)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.SavedCompute != time.Second {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupMissBeyondThreshold(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: 1})
	// Threshold is 0 (warm-up of 1 put with no neighbour): near key misses.
	res, _ := c.Lookup("f", "scalar", vec.Vector{0.5})
	if res.Hit {
		t.Errorf("hit beyond threshold: %+v", res)
	}
	if res.Distance != 0.5 {
		t.Errorf("Distance = %v, want 0.5", res.Distance)
	}
	// Widen the threshold: now it hits approximately.
	c.ForceThreshold("f", "scalar", 1.0)
	res, _ = c.Lookup("f", "scalar", vec.Vector{0.5})
	if !res.Hit || res.Value != 1 {
		t.Errorf("approximate lookup = %+v", res)
	}
}

func TestPutUnknownFunction(t *testing.T) {
	c, _ := newTestCache(t)
	if _, err := c.Put("f", PutRequest{Value: 1}); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("err = %v", err)
	}
}

func TestPutNoKey(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	if _, err := c.Put("f", PutRequest{Value: 1}); !errors.Is(err, ErrNoKey) {
		t.Errorf("err = %v, want ErrNoKey", err)
	}
}

func TestPutCostFromMissedAt(t *testing.T) {
	c, clk := newTestCache(t)
	registerScalar(t, c, "f")
	res, _ := c.Lookup("f", "scalar", vec.Vector{1})
	if res.Hit {
		t.Fatal("unexpected hit")
	}
	clk.Advance(250 * time.Millisecond) // the "computation"
	id, err := c.Put("f", PutRequest{
		Keys:     map[string]vec.Vector{"scalar": {1}},
		Value:    "v",
		MissedAt: res.MissedAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := c.Lookup("f", "scalar", vec.Vector{1})
	if !hit.Hit || hit.Entry.Cost() != 250*time.Millisecond {
		t.Errorf("entry cost = %v, want 250ms (id=%d)", hit.Entry.Cost(), id)
	}
}

func TestAccessCountAndImportanceUpdate(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: "v",
		Cost: time.Second, Size: 100,
	})
	var imp []float64
	for i := 0; i < 3; i++ {
		res, _ := c.Lookup("f", "scalar", vec.Vector{1})
		if !res.Hit {
			t.Fatal("miss")
		}
		imp = append(imp, res.Entry.Importance())
	}
	// accessCount: 1 (put) then +1 per hit → importance grows linearly.
	for i := 1; i < len(imp); i++ {
		if imp[i] <= imp[i-1] {
			t.Errorf("importance not increasing with access: %v", imp)
		}
	}
	if got, want := imp[0], 1.0*2/100; got != want {
		t.Errorf("importance after first hit = %v, want %v", got, want)
	}
}

func TestEvictionCapacityByEntries(t *testing.T) {
	c, _ := newTestCache(t, func(cfg *Config) { cfg.MaxEntries = 3 })
	registerScalar(t, c, "f")
	// Three entries with rising importance (cost).
	for i := 1; i <= 3; i++ {
		c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"scalar": {float64(i)}},
			Value: i, Cost: time.Duration(i) * time.Second, Size: 1,
		})
	}
	// Fourth put evicts the least important (cost 1s at key {1}).
	c.Put("f", PutRequest{
		Keys:  map[string]vec.Vector{"scalar": {4}},
		Value: 4, Cost: 10 * time.Second, Size: 1,
	})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if res, _ := c.Lookup("f", "scalar", vec.Vector{1}); res.Hit {
		t.Error("least-important entry survived eviction")
	}
	if res, _ := c.Lookup("f", "scalar", vec.Vector{4}); !res.Hit {
		t.Error("new entry was evicted instead of the victim")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionCapacityByBytes(t *testing.T) {
	c, _ := newTestCache(t, func(cfg *Config) { cfg.MaxBytes = 250 })
	registerScalar(t, c, "f")
	for i := 0; i < 3; i++ {
		c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"scalar": {float64(i)}},
			Value: i, Cost: time.Duration(i+1) * time.Second, Size: 100,
		})
	}
	if c.Len() != 2 || c.Bytes() > 250 {
		t.Errorf("Len = %d Bytes = %d after byte-capped puts", c.Len(), c.Bytes())
	}
}

func TestNewEntryExcludedFromEviction(t *testing.T) {
	c, _ := newTestCache(t, func(cfg *Config) { cfg.MaxEntries = 1 })
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1, Cost: time.Hour, Size: 1})
	// The new entry is far less important but must replace the victim.
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: 2, Cost: time.Nanosecond, Size: 1})
	res, _ := c.Lookup("f", "scalar", vec.Vector{2})
	if !res.Hit {
		t.Error("newly inserted entry was evicted; paper requires replace-with-new")
	}
}

func TestExpiry(t *testing.T) {
	c, clk := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1, TTL: time.Minute,
	})
	clk.Advance(59 * time.Second)
	if res, _ := c.Lookup("f", "scalar", vec.Vector{1}); !res.Hit {
		t.Error("entry expired early")
	}
	clk.Advance(2 * time.Second)
	if res, _ := c.Lookup("f", "scalar", vec.Vector{1}); res.Hit {
		t.Error("entry survived past TTL")
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", st.Expirations)
	}
}

func TestDefaultTTLIsOneHour(t *testing.T) {
	c, clk := newTestCache(t)
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1})
	clk.Advance(time.Hour - time.Second)
	if n := c.PurgeExpired(); n != 0 {
		t.Errorf("purged %d before the hour", n)
	}
	clk.Advance(2 * time.Second)
	if n := c.PurgeExpired(); n != 1 {
		t.Errorf("purged %d at the hour, want 1", n)
	}
}

func TestNextExpiry(t *testing.T) {
	c, clk := newTestCache(t)
	registerScalar(t, c, "f")
	if _, ok := c.NextExpiry(); ok {
		t.Error("NextExpiry on empty cache reported ok")
	}
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1, TTL: time.Minute})
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: 2, TTL: time.Second})
	at, ok := c.NextExpiry()
	if !ok || !at.Equal(clk.Now().Add(time.Second)) {
		t.Errorf("NextExpiry = %v ok=%v", at, ok)
	}
}

func TestDropout(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := New(Config{
		Clock:       clk,
		DropoutRate: 0.5,
		Seed:        42,
		Tuner:       TunerConfig{WarmupZ: 1},
	})
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1})
	dropouts := 0
	for i := 0; i < 1000; i++ {
		res, _ := c.Lookup("f", "scalar", vec.Vector{1})
		if res.Dropout {
			dropouts++
			if res.Hit {
				t.Fatal("dropout result also reported hit")
			}
		}
	}
	if dropouts < 400 || dropouts > 600 {
		t.Errorf("dropouts = %d of 1000 at rate 0.5", dropouts)
	}
	st := c.Stats()
	if st.Dropouts != int64(dropouts) {
		t.Errorf("stats.Dropouts = %d, want %d", st.Dropouts, dropouts)
	}
}

func TestDropoutDrivesTightening(t *testing.T) {
	// End-to-end quality control: two nearby keys with different values.
	// With dropout the cache eventually recomputes, notices the
	// inconsistency at Put time, and tightens the threshold.
	clk := clock.NewVirtual(time.Unix(0, 0))
	c := New(Config{
		Clock:       clk,
		DropoutRate: 0.5,
		Seed:        7,
		Tuner:       TunerConfig{WarmupZ: 1, K: 4},
	})
	registerScalar(t, c, "f")
	c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {0}}, Value: "a"})
	c.ForceThreshold("f", "scalar", 10)
	before, _ := c.TunerStats("f", "scalar")
	// The app would normally see a (wrong) hit for key {1}. Dropout
	// forces a recomputation whose put observes the conflict.
	tightened := false
	for i := 0; i < 50 && !tightened; i++ {
		res, _ := c.Lookup("f", "scalar", vec.Vector{1})
		if !res.Hit {
			c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: "b"})
			st, _ := c.TunerStats("f", "scalar")
			tightened = st.Tightenings > 0
		}
	}
	if !tightened {
		t.Fatalf("threshold never tightened (before: %+v)", before)
	}
	st, _ := c.TunerStats("f", "scalar")
	if st.Threshold >= 10 {
		t.Errorf("threshold = %v, want < 10 after tightening", st.Threshold)
	}
}

func TestMultiKeyTypePropagation(t *testing.T) {
	c, _ := newTestCache(t)
	err := c.RegisterFunction("recognize",
		KeyTypeSpec{Name: "direct"},
		KeyTypeSpec{
			Name: "derived",
			Extract: func(raw any) (vec.Vector, error) {
				x := raw.(float64)
				return vec.Vector{x * 2}, nil
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Put("recognize", PutRequest{
		Keys:  map[string]vec.Vector{"direct": {3}},
		Raw:   3.0,
		Value: "cat",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The entry must be findable under BOTH key types.
	if res, _ := c.Lookup("recognize", "direct", vec.Vector{3}); !res.Hit {
		t.Error("miss under direct key type")
	}
	if res, _ := c.Lookup("recognize", "derived", vec.Vector{6}); !res.Hit {
		t.Error("miss under derived key type; propagation failed")
	}
	// One value, two index references.
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (values stored once)", c.Len())
	}
}

func TestExtractorErrorPropagates(t *testing.T) {
	c, _ := newTestCache(t)
	c.RegisterFunction("f", KeyTypeSpec{
		Name:    "k",
		Extract: func(raw any) (vec.Vector, error) { return nil, errors.New("boom") },
	})
	if _, err := c.Put("f", PutRequest{Raw: 1, Value: 1}); err == nil {
		t.Error("extractor error swallowed")
	}
}

func TestCrossAppSharing(t *testing.T) {
	// The headline scenario: app B gets a hit on app A's cached result
	// for the same function.
	c, _ := newTestCache(t)
	registerScalar(t, c, "objectRecognition")
	c.Put("objectRecognition", PutRequest{
		Keys: map[string]vec.Vector{"scalar": {5}}, Value: "stop sign",
		App: "google-lens", Cost: time.Second,
	})
	c.ForceThreshold("objectRecognition", "scalar", 0.5)
	res, _ := c.Lookup("objectRecognition", "scalar", vec.Vector{5.2})
	if !res.Hit || res.Value != "stop sign" {
		t.Fatalf("cross-app lookup = %+v", res)
	}
	if res.Entry.App() != "google-lens" {
		t.Errorf("entry app = %q", res.Entry.App())
	}
}

func TestFunctionIsolation(t *testing.T) {
	// "only applications using exactly the same function can share
	// results" (§4.2).
	c, _ := newTestCache(t)
	registerScalar(t, c, "f1")
	registerScalar(t, c, "f2")
	c.Put("f1", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1})
	if res, _ := c.Lookup("f2", "scalar", vec.Vector{1}); res.Hit {
		t.Error("results leaked across functions")
	}
}

func TestRegisterResetsThreshold(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	c.ForceThreshold("f", "scalar", 9)
	registerScalar(t, c, "f") // re-register, e.g. a new app
	st, _ := c.TunerStats("f", "scalar")
	if st.Threshold != 0 || st.Active {
		t.Errorf("threshold not reset on re-register: %+v", st)
	}
}

func TestIndexKindsIntegration(t *testing.T) {
	for _, kind := range []index.Kind{index.KindLinear, index.KindKDTree, index.KindLSH, index.KindTreeMap, index.KindHash} {
		c, _ := newTestCache(t)
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Index: kind, Dim: 2}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 1}}, Value: "v"})
		res, err := c.Lookup("f", "k", vec.Vector{1, 1})
		if err != nil || !res.Hit {
			t.Errorf("%s: exact lookup hit=%v err=%v", kind, res.Hit, err)
		}
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("HitRate of zero stats != 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestEstimateSize(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 3},
		{"hello", 5},
		{vec.Vector{1, 2}, 16},
		{[]float64{1, 2, 3}, 24},
		{true, 1},
		{int(1), 8},
		{int32(1), 4},
		{struct{ X int }{1}, 64},
	}
	for _, tc := range cases {
		if got := estimateSize(tc.v); got != tc.want {
			t.Errorf("estimateSize(%T) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := vec.Vector{float64((g*200 + i) % 50)}
				if res, _ := c.Lookup("f", "scalar", key); !res.Hit {
					c.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": key}, Value: g})
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() == 0 {
		t.Error("no entries after concurrent workload")
	}
}

func TestFunctionsList(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "a")
	registerScalar(t, c, "b")
	if got := c.Functions(); len(got) != 2 {
		t.Errorf("Functions = %v", got)
	}
}

// TestLookupAcceptRejectedHitRecordsNoAccess covers the consume-or-don't-
// count contract: when the accept predicate refuses the candidate value
// (e.g. the wire service cannot ship a non-[]byte entry), the lookup must
// count as a miss and must not bump the entry's access frequency, hit
// counter, or saved-compute total.
func TestLookupAcceptRejectedHitRecordsNoAccess(t *testing.T) {
	c, _ := newTestCache(t)
	registerScalar(t, c, "f")
	key := vec.Vector{1}
	if _, err := c.Put("f", PutRequest{
		Keys:  map[string]vec.Vector{"scalar": key},
		Value: 42, // not a []byte: invisible to byte-only consumers
		Cost:  time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	res, err := c.LookupOpts("f", "scalar", key, LookupOptions{Accept: func(v any) bool {
		_, ok := v.([]byte)
		return ok
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatalf("rejected value reported as hit: %+v", res)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.SavedCompute != 0 {
		t.Errorf("stats after rejected hit = %+v, want 0 hits / 1 miss / 0 saved", st)
	}

	// The plain lookup still hits, and the rejected probe contributed no
	// access credit: this is the entry's first recorded access.
	full, err := c.Lookup("f", "scalar", key)
	if err != nil || !full.Hit {
		t.Fatalf("unrestricted lookup: %+v, %v", full, err)
	}
	if got := full.Entry.AccessCount(); got != 2 { // 1 for the put + this hit
		t.Errorf("access count = %d, want 2 (rejected probe must not count)", got)
	}

	// nil accept is exactly Lookup.
	res, err = c.LookupOpts("f", "scalar", key, LookupOptions{})
	if err != nil || !res.Hit {
		t.Errorf("nil-accept lookup: %+v, %v", res, err)
	}
}

// TestMissAndPutNeighborDoNotAllocate: a lookup that misses, and a put's
// neighbour probe, allocate nothing, at small keys and large.
func TestMissAndPutNeighborDoNotAllocate(t *testing.T) {
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
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok := c.putNeighbor(ki, q, math.Inf(1)); !ok {
				t.Fatal("no neighbour in an unbounded probe of 64 entries")
			}
		}); allocs != 0 {
			t.Errorf("dim %d: the put's neighbour probe allocates %v times, want 0", dim, allocs)
		}
	}
}

// TestPutNeighborUnderTheBound: a put feeds Algorithm 1 the neighbour
// within 4·T as T stands when it puts, whatever radius the lookup before
// it searched. On a k-d tree of 2-dim keys along one axis.
func TestPutNeighborUnderTheBound(t *testing.T) {
	setup := func(t *testing.T) (*Cache, *keyIndex) {
		c := New(Config{DisableDropout: true})
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
		// Within 20 the entry at 10 lies: the put finds it and loosens
		// toward it.
		put(t, c, 10, "x")
		if ts := tuner(c); ts.Threshold != loosened(10, 5) || ts.Loosenings != 1 {
			t.Errorf("the probe within 20 did not feed the neighbour at 10: %+v", ts)
		}
		// The other way: the lookup found 13 at 3 within 4·1.5, and the
		// threshold fell to 0.5: within 2 there is nothing.
		put(t, c, 13, "y")
		c.ForceThreshold("f", "a", 1.5)
		miss(t, c, 16, 3)
		c.ForceThreshold("f", "a", 0.5)
		if id, dist, ok := c.putNeighbor(ki, vec.Vector{16, 0}, searchRadius(0.5)); ok {
			t.Errorf("neighbour (%d, %v) beyond the shrunken radius", id, dist)
		}
	})

	t.Run("insert lands beyond R after the miss", func(t *testing.T) {
		c, ki := setup(t)
		put(t, c, 0, "a")
		c.ForceThreshold("f", "a", 1)
		miss(t, c, 10, -1)
		put(t, c, 15, "b") // nearer than 0 to 10, but 5 away: beyond 4
		q := vec.Vector{10, 0}
		if id, dist, ok := c.putNeighbor(ki, q, searchRadius(1)); ok {
			t.Errorf("neighbour (%d, %v) beyond the radius", id, dist)
		}
		put(t, c, 12, "c") // 2 away: within
		if id, dist, ok := c.putNeighbor(ki, q, searchRadius(1)); !ok || id != 3 || dist != 2 {
			t.Errorf("neighbour (%d, %v, %v), want entry 3 at 2", id, dist, ok)
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
