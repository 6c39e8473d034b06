package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/vec"
)

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

// insert and remove are the only code that may mutate ki.idx
// (TestOneDoorToTheIndex greps for any other), each under the write
// lock.

// insert adds (id, key) to the index and returns the copy of key the
// index now borrows, for the entry to own, or nil when the door or the
// index refused it: a restored key of another length is refused here.
// This is the one clone of a key on its way to an index
// (TestOneCloneOfEachKey): the caller may reuse key's array at once,
// the index borrows the clone under its Insert contract, and nothing
// writes to the clone again.
func (ki *keyIndex) insert(id ID, key vec.Vector) vec.Vector {
	if ki.admit(key, true) != nil {
		return nil
	}
	owned := key.Clone()
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if err := ki.idx.Insert(index.ID(id), owned); err != nil {
		return nil
	}
	return owned
}

// remove drops id from the index. Only an entry's owners are asked to,
// so id is there.
func (ki *keyIndex) remove(id ID) {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	ki.idx.Remove(index.ID(id))
}
