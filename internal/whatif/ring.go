package whatif

import (
	"sync/atomic"

	"repro/internal/vec"
)

// event is one sampled tap record. Lookup events carry the probe key,
// the real path's unrestricted nearest-neighbour distance, and the live
// threshold; put events carry every resolved key so the ghost caches
// can admit the entry under each counterfactual configuration.
type event struct {
	kind     uint8
	fn       string
	keyType  string // lookup events: the probed key type
	key      vec.Vector
	keyTypes []string     // put events: resolved key types (parallel to keys)
	keys     []vec.Vector // put events: resolved keys
	dist     float64      // lookup events: NN distance (-1 = none within the search radius)
	thresh   float64      // lookup events: live tuner threshold
	hit      bool
	id       uint64 // put events: entry id
	size     int    // put events: entry footprint in bytes
	costNs   int64  // put events: compute cost
	atNanos  int64
}

const (
	evLookup uint8 = iota
	evPut
)

// ring is a bounded multi-producer single-consumer queue (Vyukov-style
// per-slot sequence numbers). Producers are lookup/put goroutines on
// the hot path: push never blocks and never allocates — when the
// consumer falls behind, events are dropped and counted, which for a
// sampling profiler only lowers the effective sample rate.
type ring struct {
	mask  uint64
	slots []ringSlot
	enq   atomic.Uint64
	deq   atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	ev  event
}

// newRing builds a ring with 2^bits slots.
func newRing(bits uint) *ring {
	n := uint64(1) << bits
	r := &ring{mask: n - 1, slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues ev, returning false (dropping it) when the ring is full.
func (r *ring) push(ev event) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.ev = ev
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			// The slot still holds an unconsumed event a full lap behind:
			// the ring is full.
			return false
		default:
			pos = r.enq.Load()
		}
	}
}

// pop dequeues the oldest event. Single consumer only (the profiler
// serializes consumers behind consumeMu).
func (r *ring) pop() (event, bool) {
	pos := r.deq.Load()
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return event{}, false
	}
	ev := s.ev
	s.ev = event{} // drop key references; the slot may idle for a while
	s.seq.Store(pos + r.mask + 1)
	r.deq.Store(pos + 1)
	return ev, true
}
