// Package index implements the key-index data structures from the
// paper's cache layout (§3.6, Figure 5): exact hash maps, ordered tree
// maps, KD-trees, locality-sensitive hashing, and plain linear
// enumeration. Each supports threshold-restricted nearest-neighbour
// queries over feature-vector keys; Table 2 of the paper compares their
// lookup latencies.
package index

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// ErrEmptyKey is returned by Insert when the key vector has zero
// dimensions. Zero-dimension keys cannot be indexed — a KD-tree, for
// instance, has no axis to split on — so all implementations reject
// them up front instead of corrupting their structure or panicking.
var ErrEmptyKey = errors.New("index: empty key vector")

// ID identifies a cache entry within an index. IDs are assigned by the
// cache core and are stable for the lifetime of the entry.
type ID uint64

// Neighbor is one result of a nearest-neighbour query.
type Neighbor struct {
	ID   ID
	Key  vec.Vector
	Dist float64
}

// Index stores (ID, key-vector) pairs and answers nearest-neighbour
// queries under the index's metric. Implementations are NOT safe for
// concurrent use; the cache core guards each index with a per-key-type
// RWMutex (reads under RLock, mutations under Lock).
type Index interface {
	// Insert adds a key under id. Inserting an existing id replaces its
	// key. Empty keys are rejected with ErrEmptyKey.
	Insert(id ID, key vec.Vector) error
	// Remove deletes the entry with the given id. Removing an absent id
	// is a no-op.
	Remove(id ID)
	// Nearest returns the stored entry closest to key, or ok=false if
	// the index is empty.
	Nearest(key vec.Vector) (n Neighbor, ok bool)
	// KNearest returns up to k stored entries closest to key, ordered by
	// increasing distance.
	KNearest(key vec.Vector, k int) []Neighbor
	// NearestProbed is Nearest plus the number of entries this query
	// examined, and KNearestProbed is KNearest plus the same. A probe is
	// one distance evaluated against a stored key (or its code, for the
	// PQ kinds); work that only bounds distances, such as the k-d tree's
	// box tests, is not counted. Every kind computes the count anyway to
	// feed ProbeStats, so returning it is free; span tracing uses it to
	// attribute probe work to individual lookups.
	NearestProbed(key vec.Vector) (n Neighbor, probes int, ok bool)
	KNearestProbed(key vec.Vector, k int) (ns []Neighbor, probes int)
	// Len returns the number of stored entries.
	Len() int
	// Metric returns the metric the index orders by.
	Metric() vec.Metric
	// Kind returns the structural kind of this index.
	Kind() Kind
	// ProbeStats reports cumulative query and probe counts (the scan
	// work done answering queries). Unlike the data structure itself,
	// the counters are atomics, safe to read while other goroutines
	// query under the cache's read lock.
	ProbeStats() ProbeStats
}

// Replayer is implemented by the kinds whose Nearest is the exact
// metric neighbour (k-d tree, linear scan). For those an answer stays
// the answer while other entries are removed, and an insert can only
// replace it with the inserted entry, so a caller that remembers an
// answer and logs the mutations since (core's miss memo) can bring it
// up to date with one distance per insert instead of a search.
type Replayer interface {
	// ReplayInsert returns what Nearest(q) answers once (id, key) is
	// inserted, given that it answered (cur, found) before and cur is
	// still stored. Only ID and Dist of the result mean anything. It
	// decides the way the kind's own search does, ties included; ok is
	// false where it cannot without searching (a distance that is not
	// finite, or a tie it cannot see the search's side of).
	ReplayInsert(q vec.Vector, cur Neighbor, found bool, id ID, key vec.Vector) (next Neighbor, ok bool)
}

// replayInsert is ReplayInsert given d, the distance the kind would
// report for the inserted key: the exact kinds order by (distance, id).
// tiesExact says a tie in d is a tie in what the kind's search compares.
func replayInsert(d float64, cur Neighbor, found bool, id ID, tiesExact bool) (Neighbor, bool) {
	switch {
	case !(d <= math.MaxFloat64):
		return Neighbor{}, false
	case !found || d < cur.Dist:
		return Neighbor{ID: id, Dist: d}, true
	case d > cur.Dist:
		return cur, true
	case !tiesExact:
		return Neighbor{}, false
	case id < cur.ID:
		return Neighbor{ID: id, Dist: d}, true
	}
	return cur, true
}

// Kind names an index structure, used when applications register key
// types (§3.7) and in experiment output.
type Kind string

// The index kinds from Figure 5 of the paper, plus the sub-linear ANN
// kinds added for million-entry scale (ROADMAP item 3).
const (
	KindLinear  Kind = "linear"  // naive enumeration (Table 2 baseline)
	KindKDTree  Kind = "kdtree"  // spatial k-d tree
	KindLSH     Kind = "lsh"     // locality-sensitive hashing
	KindTreeMap Kind = "treemap" // balanced BST over lexicographic order
	KindHash    Kind = "hash"    // exact-match hash map
	KindHNSW    Kind = "hnsw"    // hierarchical navigable-small-world graph
	KindIVF     Kind = "ivf"     // inverted file (coarse quantizer cells)
	KindHNSWPQ  Kind = "hnsw-pq" // HNSW over product-quantized key codes
	KindIVFPQ   Kind = "ivf-pq"  // IVF over product-quantized key codes
)

// Options carries per-kind tuning parameters for NewWithOptions. The
// zero value means defaults everywhere: each embedded config's zero
// fields resolve via its withDefaults.
type Options struct {
	LSH  LSHConfig
	HNSW HNSWConfig
	IVF  IVFConfig
	PQ   PQConfig
}

// New constructs an index of the given kind using metric m and default
// tuning. Dim is the declared key dimensionality; no kind allocates from
// it (each learns the dimension from its first insert), so a declared
// size costs nothing until keys arrive. Every key of one index has one
// length: core checks it at its door, the k-d tree, HNSW, IVF, their PQ
// variants and LSH refuse a key of another length with
// vec.ErrDimensionMismatch and find nothing for a query of one, and the
// other kinds rank such a key at +Inf, as the metrics do.
func New(kind Kind, m vec.Metric, dim int) (Index, error) {
	return NewWithOptions(kind, m, dim, Options{})
}

// NewWithOptions constructs an index of the given kind using metric m
// and the supplied tuning options (zero-value fields fall back to each
// kind's defaults).
func NewWithOptions(kind Kind, m vec.Metric, dim int, opts Options) (Index, error) {
	switch kind {
	case KindLinear:
		return NewLinear(m), nil
	case KindKDTree:
		return NewKDTree(m), nil
	case KindLSH:
		if opts.LSH == (LSHConfig{}) {
			opts.LSH = DefaultLSHConfig()
		}
		return NewLSH(m, opts.LSH), nil
	case KindTreeMap:
		return NewTreeMap(m), nil
	case KindHash:
		return NewHash(m), nil
	case KindHNSW:
		return NewHNSW(m, opts.HNSW), nil
	case KindIVF:
		return NewIVF(m, opts.IVF), nil
	case KindHNSWPQ:
		return NewHNSWPQ(m, opts.HNSW, opts.PQ), nil
	case KindIVFPQ:
		return NewIVFPQ(m, opts.IVF, opts.PQ), nil
	}
	return nil, fmt.Errorf("index: unknown kind %q", kind)
}
