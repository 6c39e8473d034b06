package index

import "sync/atomic"

// ProbeStats reports how much work an index has done answering queries:
// Queries counts Nearest/KNearest/Radius calls, Probes the distances
// evaluated to answer them (see Index.NearestWithin). Probes/Queries is the
// average scan size — the number Table 2 of the paper compares across
// index kinds (a linear index probes Len() per query, a KD-tree the rows
// of the leaves it does not cut, an LSH its candidate bucket set). The counters are atomics: indices are
// queried under a read lock by many goroutines at once, so plain ints
// would race.
type ProbeStats struct {
	Queries int64 `json:"queries"`
	Probes  int64 `json:"probes"`
}

var (
	_ RadiusSearcher = (*Linear)(nil)
	_ RadiusSearcher = (*KDTree)(nil)
	_ RadiusSearcher = (*LSH)(nil)
	_ RadiusSearcher = (*HNSW)(nil)
	_ RadiusSearcher = (*IVF)(nil)
)

var (
	_ MemoryReporter = (*HNSW)(nil)
	_ MemoryReporter = (*IVF)(nil)
)

// probeCounter is embedded by every index implementation to satisfy
// Index.ProbeStats with shared counting plumbing.
type probeCounter struct {
	queries atomic.Int64
	probes  atomic.Int64
}

// countQuery records one query that examined n entries.
func (p *probeCounter) countQuery(n int) {
	p.queries.Add(1)
	p.probes.Add(int64(n))
}

// ProbeStats implements Index.
func (p *probeCounter) ProbeStats() ProbeStats {
	return ProbeStats{Queries: p.queries.Load(), Probes: p.probes.Load()}
}
