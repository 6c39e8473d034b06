package core

import (
	"sync"

	"repro/internal/vec"
)

// tapBuf holds the parallel slices loaned to Tap.TapPut; pooling them
// keeps the attached put path allocation-free.
type tapBuf struct {
	kts  []string
	keys []vec.Vector
}

var tapBufPool = sync.Pool{New: func() any { return new(tapBuf) }}

// Tap observes the cache's post-dropout decision stream. It exists for
// counterfactual profiling (internal/whatif): the tap sees exactly the
// quantities the lookup path already computed — the probe key, the
// nearest-neighbour distance within the search radius, the live
// threshold, and the outcome — so a profiler can replay the stream
// against shadow configurations without a second index query.
//
// Implementations MUST be cheap and non-blocking: both methods run on
// the lookup/put hot paths, concurrently from many goroutines. With a
// nil Config.Tap the cache pays one nil check and nothing else.
type Tap interface {
	// TapLookup is called once per non-dropout lookup (dropouts never
	// consult the cache, so there is no decision to shadow). dist is
	// the nearest-neighbour distance whether or not it beat the
	// threshold, or -1 when no entry lies within the search radius
	// (SearchRadius·threshold once the threshold is above 0; the whole
	// index before, so -1 then means an empty one); threshold is the
	// tuner's value at probe time. The key is owned by the caller —
	// implementations retaining it past the call must clone.
	TapLookup(fn, keyType string, key vec.Vector, dist, threshold float64, hit bool, nowNanos int64)
	// TapPut is called once per successful admission with the resolved
	// key per key type (parallel slices), the new entry's id, its size
	// in bytes, and its compute cost. The slices are BORROWED: they are
	// only valid for the duration of the call (the caller pools and
	// reuses them), so implementations retaining either slice must
	// copy it. The key vectors themselves are the cache's read-only
	// backing arrays and are safe to share indefinitely.
	TapPut(fn string, keyTypes []string, keys []vec.Vector, id uint64, size int, costNanos, nowNanos int64)
}
