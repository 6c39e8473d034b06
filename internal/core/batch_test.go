package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

func batchTestCache(t testing.TB) *Cache {
	t.Helper()
	c := New(Config{DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// MultiLookup must return index-aligned results matching what the
// single-op path would have produced, sub-op errors included.
func TestMultiLookupAlignedResults(t *testing.T) {
	c := batchTestCache(t)
	for i := 0; i < 8; i++ {
		if _, err := c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"k": {float64(10 * i), 0}},
			Value: fmt.Sprintf("v%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ForceThreshold("f", "k", 1.0); err != nil {
		t.Fatal(err)
	}
	reqs := make([]BatchLookup, 0, 10)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, BatchLookup{Function: "f", KeyType: "k", Key: vec.Vector{float64(10 * i), 0.01}})
	}
	// A sub-op against an unknown function and one against an unknown
	// key type must fail individually without failing siblings.
	reqs = append(reqs,
		BatchLookup{Function: "nope", KeyType: "k", Key: vec.Vector{1}},
		BatchLookup{Function: "f", KeyType: "nope", Key: vec.Vector{1}},
	)
	out := c.MultiLookup(reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d reqs", len(out), len(reqs))
	}
	for i := 0; i < 8; i++ {
		if out[i].Err != nil {
			t.Fatalf("sub %d: %v", i, out[i].Err)
		}
		if !out[i].Hit || out[i].Value != fmt.Sprintf("v%d", i) {
			t.Fatalf("sub %d: hit=%v value=%v", i, out[i].Hit, out[i].Value)
		}
	}
	if !errors.Is(out[8].Err, ErrUnknownFunction) {
		t.Errorf("sub 8 err = %v, want ErrUnknownFunction", out[8].Err)
	}
	if !errors.Is(out[9].Err, ErrUnknownKeyType) {
		t.Errorf("sub 9 err = %v, want ErrUnknownKeyType", out[9].Err)
	}
	st := c.Stats()
	if st.Hits != 8 {
		t.Errorf("hits = %d, want 8 (errored subs must not count)", st.Hits)
	}
}

// MultiPut must insert every sub-op and report per-sub errors.
func TestMultiPutAlignedResults(t *testing.T) {
	c := batchTestCache(t)
	reqs := make([]BatchPut, 0, 9)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, BatchPut{Function: "f", Req: PutRequest{
			Keys:  map[string]vec.Vector{"k": {float64(10 * i), 0}},
			Value: []byte{byte(i)},
		}})
	}
	reqs = append(reqs, BatchPut{Function: "nope", Req: PutRequest{
		Keys: map[string]vec.Vector{"k": {1}}, Value: []byte("x"),
	}})
	out := c.MultiPut(reqs)
	seen := make(map[ID]bool)
	for i := 0; i < 8; i++ {
		if out[i].Err != nil {
			t.Fatalf("sub %d: %v", i, out[i].Err)
		}
		if out[i].ID == 0 || seen[out[i].ID] {
			t.Fatalf("sub %d: bad or duplicate id %d", i, out[i].ID)
		}
		seen[out[i].ID] = true
	}
	if !errors.Is(out[8].Err, ErrUnknownFunction) {
		t.Errorf("sub 8 err = %v, want ErrUnknownFunction", out[8].Err)
	}
	if c.Len() != 8 {
		t.Errorf("entries = %d, want 8", c.Len())
	}
	// Every inserted entry must be individually findable.
	for i := 0; i < 8; i++ {
		res, err := c.Lookup("f", "k", vec.Vector{float64(10 * i), 0})
		if err != nil || !res.Hit {
			t.Fatalf("lookup after batch put %d: hit=%v err=%v", i, res.Hit, err)
		}
	}
}

// Empty and single-element batches take the inline path and must still
// be correct.
func TestMultiLookupSmallBatches(t *testing.T) {
	c := batchTestCache(t)
	if out := c.MultiLookup(nil); len(out) != 0 {
		t.Fatalf("nil batch: %v", out)
	}
	out := c.MultiLookup([]BatchLookup{{Function: "f", KeyType: "k", Key: vec.Vector{1}}})
	if len(out) != 1 || out[0].Err != nil || out[0].Hit {
		t.Fatalf("singleton batch on empty cache: %+v", out)
	}
}

// MultiLookupInto answers what MultiLookup does in dst's memory, over
// stale results of an earlier batch, on the inline path and the fanned-out
// one, and a reused dst makes a small batch allocation-free.
func TestMultiLookupIntoReusesDst(t *testing.T) {
	c := batchTestCache(t)
	for i := 0; i < 8; i++ {
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {float64(i), 0}}, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	var reqs []BatchLookup
	for i := 0; i < 8; i++ {
		reqs = append(reqs, BatchLookup{Function: "f", KeyType: "k", Key: vec.Vector{float64(i), 0}})
	}
	reqs = append(reqs, BatchLookup{Function: "nope", KeyType: "k", Key: vec.Vector{1}})
	dst := c.MultiLookupInto(nil, reqs)
	for _, n := range []int{1, len(reqs)} {
		// Reversed, so every slot held a different sub's result before.
		batch := make([]BatchLookup, n)
		for i := range batch {
			batch[i] = reqs[len(reqs)-1-i]
		}
		want := c.MultiLookup(batch)
		got := c.MultiLookupInto(dst, batch)
		if &got[0] != &dst[0] {
			t.Errorf("batch of %d: results not written into dst", n)
		}
		for i := range want {
			if got[i].Hit != want[i].Hit || got[i].Value != want[i].Value || got[i].Distance != want[i].Distance ||
				(got[i].Err == nil) != (want[i].Err == nil) {
				t.Errorf("batch of %d, sub %d: %+v, MultiLookup says %+v", n, i, got[i], want[i])
			}
		}
	}
	one := reqs[:1]
	if allocs := testing.AllocsPerRun(100, func() { dst = c.MultiLookupInto(dst, one) }); allocs != 0 {
		t.Errorf("a one-sub batch into a reused dst allocates %v times, want 0", allocs)
	}
}

// Concurrent MultiLookup/MultiPut batches must be race-free and
// consistent (run under -race in CI).
func TestMultiLookupConcurrentBatches(t *testing.T) {
	c := batchTestCache(t)
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			puts := make([]BatchPut, 16)
			for i := range puts {
				puts[i] = BatchPut{Function: "f", Req: PutRequest{
					Keys:  map[string]vec.Vector{"k": {float64(100*g + i), 0}},
					Value: []byte{byte(g), byte(i)},
				}}
			}
			for _, r := range c.MultiPut(puts) {
				if r.Err != nil {
					t.Errorf("put: %v", r.Err)
				}
			}
			looks := make([]BatchLookup, 16)
			for i := range looks {
				looks[i] = BatchLookup{Function: "f", KeyType: "k", Key: vec.Vector{float64(100*g + i), 0}}
			}
			for i, r := range c.MultiLookup(looks) {
				if r.Err != nil {
					t.Errorf("lookup %d: %v", i, r.Err)
				}
				if !r.Hit {
					t.Errorf("lookup %d: miss for just-put key", i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// A traced batch records spans per sub-op (PR 5 discipline): each
// sub-lookup with its own trace ID must be retained individually.
func TestMultiLookupPerSubSpans(t *testing.T) {
	tel := telemetry.New()
	c := New(Config{DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}, Telemetry: tel})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]BatchLookup, 4)
	traces := make([]telemetry.TraceID, 4)
	for i := range reqs {
		traces[i] = telemetry.NewTraceID()
		reqs[i] = BatchLookup{
			Function: "f", KeyType: "k", Key: vec.Vector{float64(i)},
			Opts: LookupOptions{Trace: traces[i]},
		}
	}
	out := c.MultiLookup(reqs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
		if r.Trace != traces[i] {
			t.Errorf("sub %d: trace = %s, want %s", i, r.Trace, traces[i])
		}
	}
	for _, tr := range traces {
		if n := len(tel.Spans.Find(tr)); n == 0 {
			t.Errorf("trace %s: no span retained", tr)
		}
	}
}
