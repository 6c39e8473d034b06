// Package core implements the Potluck cache service: approximate
// deduplication of computation results keyed by feature vectors
// (paper §3). It provides the entry store with the importance metric
// (§3.3), the threshold-restricted nearest-neighbour lookup with random
// dropout (§3.4), the NN-based threshold-tuning algorithm (§3.5,
// Algorithm 1), importance-based eviction and expiry (§3.6), and
// multi-key-type indices (§3.7).
//
// The threshold arithmetic rounds every product that feeds a sum on its
// own (float64(...)), so that no GOARCH fuses it into a multiply-add and
// the tuned thresholds have the same bits everywhere.
package core

import (
	"sync/atomic"
	"time"

	"repro/internal/vec"
)

// entry is one live cached computation result. Identity fields (id,
// value, cost, size, app, timestamps, owners) are immutable after the
// entry is published to the cache's entry table; the hot counters
// (accessCount, lastAccess) are atomics so lookup hits on the same
// entry never contend on a lock. The entry is the one table from id to
// key: owners holds each key it was indexed under, and the indices
// borrow those keys.
type entry struct {
	id ID
	// value is the cached computation result. The cache stores it once;
	// indices hold references by id (§4.2: "the final 'values' stored
	// are simply references ... to the actual value").
	value any
	// cost is the computation overhead: the elapsed time between the
	// lookup() miss and the put() of this entry (§3.3).
	cost time.Duration
	// size is the entry's footprint in bytes, the denominator of the
	// importance metric.
	size int
	// app is the application that inserted the entry, used by the
	// reputation system (§3.5 security discussion).
	app        string
	insertedAt time.Time
	expiresAt  time.Time
	// owners lists the key indices that reference this entry, each with
	// the key it holds there (keyIndex.insert's clone), in the function's
	// key-type order and fixed at insertion time. Removal walks exactly
	// these indices instead of scanning every registered function (§3.7:
	// the value is "cleared via garbage collection when no indices have
	// references to it" — here, when it has been unlinked from every
	// owner); snapshots and invalidation read the keys and the function
	// from here.
	owners []owner

	// accessCount is incremented by every lookup hit; it starts at 1 on
	// put (§3.3: "access frequency is initialized to 1").
	accessCount atomic.Int64
	// lastAccess is the UnixNano time of the most recent hit (or the
	// insertion time), read by the LRU eviction policy.
	lastAccess atomic.Int64

	// victimSlot and expirySlot are the entry's positions in the cache's
	// eviction and expiry heaps (see Heap), guarded by Cache.admitMu.
	victimSlot, expirySlot int
}

// owner is one key index holding an entry, and the key it holds it by.
type owner struct {
	ki  *keyIndex
	key vec.Vector
}

// function names the function the entry was put under ("" for an entry
// no index accepted a key of).
func (e *entry) function() string {
	if len(e.owners) == 0 {
		return ""
	}
	return e.owners[0].ki.fn
}

// ID identifies an entry. It matches index.ID numerically.
type ID uint64

// meta reads the metadata replacement policies score.
func (e *entry) meta() Meta {
	return Meta{
		Cost:        e.cost,
		Size:        e.size,
		AccessCount: e.accessCount.Load(),
		LastAccess:  e.lastAccess.Load(),
		InsertedAt:  e.insertedAt.UnixNano(),
	}
}

// snapshot returns an immutable copy for safe external consumption.
func (e *entry) snapshot() Entry {
	return Entry{
		id:          e.id,
		value:       e.value,
		cost:        e.cost,
		size:        e.size,
		app:         e.app,
		insertedAt:  e.insertedAt,
		expiresAt:   e.expiresAt,
		accessCount: e.accessCount.Load(),
		lastAccess:  time.Unix(0, e.lastAccess.Load()),
	}
}

// Entry is a point-in-time snapshot of a cached entry, as returned in
// LookupResult. It is a plain value: safe to copy and to read from any
// goroutine.
type Entry struct {
	id          ID
	value       any
	cost        time.Duration
	size        int
	accessCount int64
	insertedAt  time.Time
	expiresAt   time.Time
	lastAccess  time.Time
	app         string
}

// Importance is Meta.Importance evaluated at snapshot time.
func (e Entry) Importance() float64 {
	return Meta{Cost: e.cost, Size: e.size, AccessCount: e.accessCount}.Importance()
}

// Value returns the cached result.
func (e Entry) Value() any { return e.value }

// Cost returns the computation overhead recorded for this entry.
func (e Entry) Cost() time.Duration { return e.cost }

// Size returns the entry's size in bytes.
func (e Entry) Size() int { return e.size }

// AccessCount returns the number of times the entry had been returned by
// lookups at snapshot time, plus one for the initial put.
func (e Entry) AccessCount() int64 { return e.accessCount }

// App returns the name of the application that inserted the entry.
func (e Entry) App() string { return e.app }

// ExpiresAt returns the entry's validity deadline.
func (e Entry) ExpiresAt() time.Time { return e.expiresAt }
