package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/vec"
)

// The miss memo. Potluck's protocol is lookup → miss → compute → put
// (§3.4–3.6), and Algorithm 1 wants the new key's nearest neighbour as
// of just before it is inserted — the entry the lookup found one
// inference earlier, give or take what other callers did to the index in
// between. So a lookup that does not hit leaves its probe's answer in a
// small per-key-index table, stamped with the index's mutation epoch, and
// the put for the same key turns it into the answer a probe would give
// now by replaying the mutations logged since: an insert nearer than the
// remembered neighbour replaces it (one distance), removals of other
// entries change nothing, and the removal of the neighbour itself, or
// more mutations than the log holds, means the put probes as it always
// did. Replay is exact only where Nearest is the true metric neighbour
// (index.Replayer: k-d tree, linear scan); every other kind uses a memo
// only while the epoch has not moved. Nothing here is visible to callers:
// no ticket to carry, no wire field, and every entry point that puts
// after a lookup of the same key — library, single and batch wire ops,
// mesh replica puts — is served.

const (
	// memoSlots is how many missed keys one key index remembers,
	// direct-mapped by a hash of the key's bits. A memo is live from a
	// miss to its put, so the table has to cover the callers computing
	// at one moment, not the cache. Through the daemon, write-evict's
	// eight callers lose 2.0% of their memos to a colliding miss at 64
	// slots, 4.0% at 32 and 7.7% at 16 (CHANGES.md, PR 23); each loss is
	// one extra probe. Every slot keeps a copy of its key, so the worst
	// case is sized by the key: 64 × 768 × 8 B = 0.4 MB per key index at
	// 768 dimensions, 8 KB at 16.
	memoSlots = 64
	// mutationLog is how many index mutations a memo may lag behind.
	// Records hold ids only (an inserted key is read back from members),
	// so the log costs 4 KB whatever the key size.
	mutationLog = 256
)

// mutation is one logged change of a key index: id inserted or removed.
type mutation struct {
	id     ID
	remove bool
}

// neighborSource says where a put's pre-insertion neighbour came from.
type neighborSource int

const (
	fromMemo      neighborSource = iota // the memo, brought up to date
	probeAbsent                         // no memo: a dropout, a put no lookup preceded, a slot lost to another miss
	probeStale                          // the memo's neighbour was removed, or the kind cannot replay
	probeOverflow                       // more mutations since the miss than the log holds
	numNeighborSources
)

var neighborSourceNames = [numNeighborSources]string{"memo", "probe_absent", "probe_stale", "probe_overflow"}

// memoCounters is the per-key-index series behind
// potluck_put_neighbor_total and its replayed-mutations companion.
type memoCounters struct {
	source   [numNeighborSources]atomic.Int64
	replayed atomic.Int64
}

// memoAnswer is one remembered probe: what Nearest answered for the
// slot's key when the index was at epoch.
type memoAnswer struct {
	nid   index.ID
	dist  float64
	found bool
	epoch uint64
}

type memoSlot struct {
	key vec.Vector // reused from miss to miss; empty while the slot is
	memoAnswer
}

// missMemo is the table. mu is a leaf lock: it is never held while
// taking any other lock, keyIndex.mu included.
type missMemo struct {
	mu    sync.Mutex
	slots [memoSlots]memoSlot
}

// slotOf hashes the key's bits: FNV-1a over the words with each round
// folded back on itself, then a Fibonacci multiply whose top bits pick
// the slot. A multiply only carries upward, and a key with small
// integral coordinates differs from its neighbours in the top dozen bits
// of each word alone: without the folds those never reach the bits the
// next round multiplies, and every such key lands in one slot.
func slotOf(key vec.Vector) int {
	h := uint64(14695981039346656037)
	for _, x := range key {
		h = (h ^ math.Float64bits(x)) * 1099511628211
		h ^= h >> 32
	}
	return int((h * 0x9e3779b97f4a7c15 >> 32) * memoSlots >> 32)
}

// record remembers that Nearest(key) answered (n, found) at epoch. A
// distance that is not finite (a coordinate that is infinite or NaN) is
// not worth remembering: the kinds disagree on what such a neighbour is.
func (m *missMemo) record(key vec.Vector, n index.Neighbor, found bool, epoch uint64) {
	if found && !(n.Dist <= math.MaxFloat64) {
		return
	}
	s := &m.slots[slotOf(key)]
	m.mu.Lock()
	s.key = append(s.key[:0], key...)
	s.memoAnswer = memoAnswer{nid: n.ID, dist: n.Dist, found: found, epoch: epoch}
	m.mu.Unlock()
}

// recall returns the memo for exactly this key, bit for bit. The memo
// stays: a second put of the same key replays the first one's insert.
func (m *missMemo) recall(key vec.Vector) (memoAnswer, bool) {
	s := &m.slots[slotOf(key)]
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(s.key) != len(key) || len(key) == 0 {
		return memoAnswer{}, false
	}
	for i, x := range key {
		if math.Float64bits(x) != math.Float64bits(s.key[i]) {
			return memoAnswer{}, false
		}
	}
	return s.memoAnswer, true
}

// admit is the door every key of the key type passes: lookups, puts
// and restored entries. A put's key must not be empty, and a key of any
// op must have the key type's length (keyIndex.width); the first key a
// put admits sets that length when no Dim was declared, by one
// compare-and-swap, so of two racing first puts of different lengths
// exactly one wins. A lookup before any put sets nothing: the index is
// empty. This is the only length check: no index kind needs one.
func (ki *keyIndex) admit(key vec.Vector, put bool) error {
	n := int64(len(key))
	if put && n == 0 {
		return fmt.Errorf("%w: key type %q", ErrEmptyKey, ki.spec.Name)
	}
	w := ki.width.Load()
	if w == 0 {
		if !put || ki.width.CompareAndSwap(0, n) {
			return nil
		}
		w = ki.width.Load() // another put's first key won
	}
	if w == n {
		return nil
	}
	return fmt.Errorf("%w: key type %q has keys of length %d, not %d", vec.ErrDimensionMismatch, ki.spec.Name, w, n)
}

// insert and remove are the only code that may mutate ki.idx and
// ki.members (TestOneDoorToTheIndex greps for any other): each mutation
// moves the epoch and enters the log under the same write lock, so a
// reader holding mu sees an index, an epoch and a log that agree.

// insert adds (id, key) to the index and the member table, reporting
// whether the door and the index took it: a restored key of another
// length is refused here. key is kept, not copied, as it always was.
func (ki *keyIndex) insert(id ID, key vec.Vector) bool {
	if ki.admit(key, true) != nil {
		return false
	}
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if err := ki.idx.Insert(index.ID(id), key); err != nil {
		return false
	}
	if _, replaced := ki.members[id]; replaced {
		ki.logMutation(id, true)
	}
	ki.members[id] = key
	ki.logMutation(id, false)
	return true
}

// remove drops id from the index and the member table if it is there.
func (ki *keyIndex) remove(id ID) {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if _, ok := ki.members[id]; !ok {
		return
	}
	ki.idx.Remove(index.ID(id))
	delete(ki.members, id)
	ki.logMutation(id, true)
}

// logMutation records mutation number ki.epoch. Caller holds ki.mu.
func (ki *keyIndex) logMutation(id ID, remove bool) {
	ki.log[ki.epoch%mutationLog] = mutation{id: id, remove: remove}
	ki.epoch++
}

// putNeighbor returns what ki.idx.Nearest(key) answers at this instant —
// the pre-insertion neighbour Algorithm 1 is fed — from the memo where
// one can be brought up to date, from the index otherwise.
func (c *Cache) putNeighbor(ki *keyIndex, key vec.Vector) (id index.ID, dist float64, ok bool) {
	m, have := ki.memo.recall(key)
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	src := probeAbsent
	if have {
		src = ki.replay(key, &m)
		if src == fromMemo && c.memoHook != nil && !c.memoHook(ki, key, m) {
			src = probeAbsent
		}
	}
	ki.memoCtr.source[src].Add(1)
	if src == fromMemo {
		return m.nid, m.dist, m.found
	}
	n, ok := ki.idx.Nearest(key)
	return n.ID, n.Dist, ok
}

// replay brings m, remembered at m.epoch, up to the index's current
// epoch, or says why it cannot. The current entries are those of m.epoch
// less the removals plus the inserts still present; while m's neighbour
// survives it stays nearest among the former, so the answer is the
// nearest of it and the latter. Caller holds ki.mu.
func (ki *keyIndex) replay(key vec.Vector, m *memoAnswer) neighborSource {
	behind := ki.epoch - m.epoch
	switch {
	case behind == 0:
		return fromMemo
	case ki.replayer == nil:
		return probeStale
	case behind > mutationLog:
		return probeOverflow
	}
	cur, found := index.Neighbor{ID: m.nid, Dist: m.dist}, m.found
	for e := m.epoch; e != ki.epoch; e++ {
		mu := ki.log[e%mutationLog]
		if mu.remove {
			if found && index.ID(mu.id) == cur.ID {
				return probeStale
			}
			continue
		}
		inserted, present := ki.members[mu.id]
		if !present {
			continue // removed again since
		}
		next, ok := ki.replayer.ReplayInsert(key, cur, found, index.ID(mu.id), inserted)
		if !ok {
			return probeStale
		}
		cur, found = next, true
	}
	ki.memoCtr.replayed.Add(int64(behind))
	*m = memoAnswer{nid: cur.ID, dist: cur.Dist, found: found, epoch: ki.epoch}
	return fromMemo
}
