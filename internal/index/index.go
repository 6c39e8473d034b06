// Package index implements the key-index data structures from the
// paper's cache layout (§3.6, Figure 5): exact hash maps, ordered tree
// maps, KD-trees, locality-sensitive hashing, and plain linear
// enumeration. Each supports threshold-restricted nearest-neighbour
// queries over feature-vector keys; Table 2 of the paper compares their
// lookup latencies.
//
// As in package vec, every product that feeds a sum is rounded on its
// own (float64(...)), so that no GOARCH fuses it into a multiply-add and
// the indexes answer with the same bits everywhere.
package index

import (
	"errors"
	"fmt"

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

// Neighbor is one result of a nearest-neighbour query. Key is the slice
// Insert was given for ID, never a copy or a scan row: no one writes it.
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
	// key. Empty keys are rejected with ErrEmptyKey. The index keeps key,
	// not a copy, and hands it back in Neighbor.Key: the caller must not
	// modify it afterwards (core clones each key once, at its door).
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
	// NearestWithin is Nearest for a caller that can use a neighbour only
	// within r of key: ok=false says it found none within r, and r = +Inf
	// is Nearest. Every kind but HNSW over uncompressed keys answers what
	// Nearest answers when that lies at Dist <= r, bit for bit: the k-d
	// tree starts its search at the bound and scans only what could lie
	// within it, so a far miss costs about the one leaf its descent
	// reaches, and the other kinds search as Nearest does and filter. HNSW
	// over uncompressed keys stops widening its search once it holds an
	// answer within r: it finds one for exactly the queries Nearest
	// answers within r, but not always Nearest's own. HNSW with or
	// without PQ first checks the box of its keys: a query whose box bound
	// exceeds r has no key within r, and is answered ok=false with 0
	// probes, without a search.
	// KNearestProbed is KNearest plus the probe count. A probe is one
	// distance evaluated against a stored key (or its code, for HNSW-PQ);
	// work that only bounds distances, such as the k-d tree's box
	// tests, is not counted. Every kind computes the count anyway to feed
	// ProbeStats, so returning it is free; span tracing uses it to
	// attribute probe work to individual lookups.
	NearestWithin(key vec.Vector, r float64) (n Neighbor, probes int, ok bool)
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

// within keeps a search's answer (n, ok) only while n lies within r: it
// is NearestWithin for the kinds that filter an unbounded search, and the
// last step of HNSW's bounded one, which may end with nothing within r.
func within(n Neighbor, probes int, ok bool, r float64) (Neighbor, int, bool) {
	if !ok || n.Dist > r {
		return Neighbor{}, probes, false
	}
	return n, probes, true
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
// length: core checks it at its door, the k-d tree, HNSW, HNSW-PQ, IVF
// and LSH refuse a key of another length with
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
	}
	return nil, fmt.Errorf("index: unknown kind %q", kind)
}
