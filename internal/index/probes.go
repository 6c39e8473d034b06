package index

import (
	"sync/atomic"

	"repro/internal/vec"
)

// ProbedSearcher is the per-query view of the probe counters: every
// index kind already computes the number of entries it examined to
// answer a query — it feeds countQuery — so returning that count to the
// caller is free. A probe is one distance evaluated against a stored key
// (or its code, for the PQ kinds); work that only bounds distances, such
// as the k-d tree's box tests, is not counted. Span tracing uses the
// count to attribute probe work to individual lookups instead of only to
// the aggregate counters. All kinds implement it.
type ProbedSearcher interface {
	// NearestProbed is Nearest plus the entries examined by this query.
	NearestProbed(key vec.Vector) (Neighbor, int, bool)
	// KNearestProbed is KNearest plus the entries examined.
	KNearestProbed(key vec.Vector, k int) ([]Neighbor, int)
}

// ProbeStats reports how much work an index has done answering queries:
// Queries counts Nearest/KNearest/Radius calls, Probes the distances
// evaluated to answer them (see ProbedSearcher). Probes/Queries is the
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
	_ ProbedSearcher = (*Linear)(nil)
	_ ProbedSearcher = (*Hash)(nil)
	_ ProbedSearcher = (*KDTree)(nil)
	_ ProbedSearcher = (*LSH)(nil)
	_ ProbedSearcher = (*TreeMap)(nil)
	_ ProbedSearcher = (*HNSW)(nil)
	_ ProbedSearcher = (*IVF)(nil)
)

var (
	_ RadiusSearcher = (*Linear)(nil)
	_ RadiusSearcher = (*KDTree)(nil)
	_ RadiusSearcher = (*LSH)(nil)
	_ RadiusSearcher = (*HNSW)(nil)
	_ RadiusSearcher = (*IVF)(nil)
)

var (
	_ ResolverSetter = (*HNSW)(nil)
	_ ResolverSetter = (*IVF)(nil)
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
