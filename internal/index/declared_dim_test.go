package index_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// TestDeclaredDimNeverAllocates registers every index kind through the
// cache at a declared key dimension of 2^17: a declaration is a promise
// about keys to come, so no kind may allocate from it before the first
// insert (eager LSH projections alone would be ~50 MB here).
func TestDeclaredDimNeverAllocates(t *testing.T) {
	c := core.New(core.Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range index.AllKinds() {
		if err := c.RegisterFunction("f-"+string(k), core.KeyTypeSpec{Name: "k", Index: k, Dim: 1 << 17}); err != nil {
			t.Fatalf("register %s: %v", k, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("registering %d kinds at Dim 2^17 allocated %d bytes, want < 1 MiB", len(index.AllKinds()), got)
	}
}
