package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// PolicyKind names a cache-entry replacement strategy. The paper's
// evaluation (§5.3, Figure 8) compares the importance-based strategy
// against LRU and random discard.
type PolicyKind string

// The replacement strategies of §5.3.
const (
	PolicyImportance PolicyKind = "importance" // Potluck's default
	PolicyLRU        PolicyKind = "lru"        // least recently used
	PolicyRandom     PolicyKind = "random"     // random discard
	PolicyFIFO       PolicyKind = "fifo"       // insertion order (extra baseline)
)

// Score orders eviction candidates: the entry with the smallest
// (Score, id) goes first. It is an integer so that nanosecond
// timestamps order exactly; float-valued scores enter through
// FloatScore.
type Score int64

// FloatScore maps f to a Score with the same order: for non-NaN floats,
// a < b implies FloatScore(a) < FloatScore(b), and equal floats map to
// equal scores (except that -0 sorts just below +0).
func FloatScore(f float64) Score {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return Score(b)
}

// Meta is the entry metadata a replacement policy scores. The live
// cache fills it from an entry's immutable fields and atomics, a
// what-if ghost from its shadow entry, so both run the same policy.
type Meta struct {
	Cost        time.Duration // computation overhead (§3.3)
	Size        int           // footprint in bytes
	AccessCount int64         // hits + 1 for the put
	LastAccess  int64         // UnixNano of the latest hit, or of the put
	InsertedAt  int64         // UnixNano of the put
}

// Importance is the paper's cache-entry usefulness metric:
//
//	importance = computation overhead × access frequency / entry size
//
// (§3.3). It determines eviction order only; lookups never consult it.
func (m Meta) Importance() float64 {
	return m.Cost.Seconds() * float64(m.AccessCount) / float64(max(m.Size, 1))
}

// A Policy is a named score function over entry metadata: the cache
// evicts the live entry with the smallest (score, id). The contract is
// that an entry's score never decreases while it is cached — true of
// every shipped policy (access counts, last-access and insertion times
// only grow) and of GreedyDual-style "inflation + ratio" scores. That
// is what lets the cache keep candidates in a heap keyed by the score
// each had when last examined and still evict exactly the entry a full
// scan would pick, with no work on the lookup-hit path (see Victim).
// If a score does drop — a wall clock stepping backwards under lru —
// the victim is still a live entry, just possibly not the minimum.
type Policy struct {
	kind  PolicyKind
	score func(Meta) Score
	// rng is set only by the random policy, whose victim is a uniform
	// draw instead of the minimum. Victim runs under the cache's
	// admission lock, which is all the synchronization rng needs.
	rng *rand.Rand
}

// NewPolicy constructs the named policy. seed drives the random
// policy's draws; the other kinds ignore it.
func NewPolicy(kind PolicyKind, seed int64) (Policy, error) {
	switch kind {
	case PolicyImportance, "":
		// §3.6: "the least important entry will be evicted".
		return Policy{kind: PolicyImportance, score: func(m Meta) Score { return FloatScore(m.Importance()) }}, nil
	case PolicyLRU:
		return Policy{kind: kind, score: func(m Meta) Score { return Score(m.LastAccess) }}, nil
	case PolicyFIFO:
		return Policy{kind: kind, score: func(m Meta) Score { return Score(m.InsertedAt) }}, nil
	case PolicyRandom:
		return Policy{kind: kind, score: func(Meta) Score { return 0 }, rng: rand.New(rand.NewSource(seed))}, nil
	}
	return Policy{}, fmt.Errorf("core: unknown eviction policy %q", kind)
}

// Name returns the policy's kind.
func (p Policy) Name() PolicyKind { return p.kind }

// Score returns the key an entry with metadata m enters the candidate
// heap under.
func (p Policy) Score(m Meta) Score { return p.score(m) }

// Victim returns the member of the non-empty heap h that p evicts next;
// the caller removes it. Members were pushed under p.Score of their
// metadata at the time, and meta reads an element's current metadata.
//
// The heap is lazy: a hit raises an entry's score without touching the
// heap, so a key may be stale, but only ever too low. Victim rescores
// the top; if the score rose it re-keys the top in place and looks
// again, and the first top whose key is current is the true minimum —
// every other member's real score is at least its key, which is at
// least the top's. Each re-key is O(log n) and is paid for by a hit
// since the entry was last examined.
func Victim[E any](p Policy, h *Heap[E], meta func(E) Meta) E {
	if p.rng != nil {
		return h.At(p.rng.Intn(h.Len()))
	}
	for {
		h.examined++
		e, key := h.Min()
		s := p.score(meta(e))
		if s <= key {
			return e
		}
		h.rekeyMin(s)
	}
}
