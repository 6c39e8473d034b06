package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// Batch operations: MultiLookup and MultiPut execute many independent
// cache operations with one call, fanning the work across a bounded
// worker group. The cache's sharded locking (per-key-type RWMutexes,
// lock-free entry table — see the concurrency-model comment in
// cache.go) means sub-operations on different functions or key types
// probe genuinely in parallel; sub-ops on the same key type still
// overlap their entry resolution and value handling outside the index
// read lock.
//
// Worker-group sizing: min(GOMAXPROCS, len(batch)) goroutines pull
// sub-op indices from an atomic counter. Batches below
// batchParallelMin run inline — goroutine handoff costs more than a
// couple of sub-millisecond probes. Each sub-op carries its own
// LookupOptions (and therefore its own trace ID), so a traced batch
// records one span per sub-operation, not one blurred span per batch.

// batchParallelMin is the batch size below which fan-out is not worth
// the goroutine handoff and the batch runs inline.
const batchParallelMin = 4

// BatchLookup is one sub-operation of a MultiLookup.
type BatchLookup struct {
	Function string
	KeyType  string
	Key      vec.Vector
	Opts     LookupOptions
}

// BatchLookupResult pairs one sub-operation's LookupResult with its
// error. A sub-op failure (unknown function, say) never affects its
// siblings.
type BatchLookupResult struct {
	LookupResult
	Err error
}

// MultiLookup executes the sub-lookups concurrently over a bounded
// worker group and returns one result per sub-op, index-aligned with
// reqs.
func (c *Cache) MultiLookup(reqs []BatchLookup) []BatchLookupResult {
	return c.MultiLookupInto(nil, reqs)
}

// MultiLookupInto is MultiLookup writing its results into dst's memory,
// grown when too small. A caller that reuses dst from batch to batch, as
// the wire service does for each connection, runs a batch smaller than
// batchParallelMin (a single lookup, say) without allocating.
func (c *Cache) MultiLookupInto(dst []BatchLookupResult, reqs []BatchLookup) []BatchLookupResult {
	out := slices.Grow(dst[:0], len(reqs))[:len(reqs)]
	if len(reqs) < batchParallelMin {
		// Not through runBatch: the closure it takes escapes to its
		// workers, and would be allocated for every batch.
		for i := range reqs {
			c.batchLookup(&out[i], &reqs[i])
		}
		return out
	}
	runBatch(len(reqs), func(i int) { c.batchLookup(&out[i], &reqs[i]) })
	return out
}

// batchLookup runs one sub-lookup into its result, in place: a result
// carries an entry snapshot.
func (c *Cache) batchLookup(r *BatchLookupResult, q *BatchLookup) {
	r.LookupResult, r.Err = c.lookup(q.Function, q.KeyType, q.Key, q.Opts)
}

// BatchPut is one sub-operation of a MultiPut.
type BatchPut struct {
	Function string
	Req      PutRequest
}

// BatchPutResult pairs one sub-operation's new entry ID with its error.
type BatchPutResult struct {
	ID  ID
	Err error
}

// MultiPut executes the sub-puts concurrently over a bounded worker
// group and returns one result per sub-op, index-aligned with reqs.
// Key extraction, tuner feeding, and index insertion overlap across
// sub-ops; admission (the expiry heap and eviction loop) serializes on
// the admission lock as it does for concurrent single puts.
func (c *Cache) MultiPut(reqs []BatchPut) []BatchPutResult {
	out := make([]BatchPutResult, len(reqs))
	runBatch(len(reqs), func(i int) {
		id, err := c.Put(reqs[i].Function, reqs[i].Req)
		out[i] = BatchPutResult{ID: id, Err: err}
	})
	return out
}

// runBatch executes run(0..n-1) across min(GOMAXPROCS, n) workers, or
// inline for small batches. Workers claim indices from an atomic
// counter so an expensive sub-op (a purge-and-retry lookup, say) never
// strands a fixed stripe of the batch behind it.
func runBatch(n int, run func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < batchParallelMin || workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}
