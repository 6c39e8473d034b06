package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/vec"
)

// InvalidateRadius removes every entry whose key under the given key
// type lies within distance r of key, returning how many entries were
// dropped. It is the explicit-invalidation companion to the dropout
// mechanism: when an application knows the world changed (a scene cut, a
// rearranged room), it can clear the affected key region at once instead
// of waiting for dropout-driven tightening to age the stale results out.
// The removal is propagated to all of the function's indices, like
// eviction. Only entries actually removed are counted: an entry already
// evicted by a racing operation is not double-counted.
func (c *Cache) InvalidateRadius(fn, keyType string, key vec.Vector, r float64) (int, error) {
	if r < 0 {
		return 0, fmt.Errorf("core: negative invalidation radius %v", r)
	}
	ki, err := c.keyIndexFor(fn, keyType)
	if err != nil {
		return 0, err
	}
	ki.mu.RLock()
	hits := index.Radius(ki.idx, key, r)
	ki.mu.RUnlock()
	removed := 0
	c.admitMu.Lock()
	for _, n := range hits {
		if c.removeEntryLocked(ID(n.ID), false) != nil {
			removed++
		}
	}
	c.admitMu.Unlock()
	c.ctr.invalidations.Add(int64(removed))
	return removed, nil
}

// InvalidateFunction drops every entry of a function across all its key
// types and resets the function's similarity thresholds — the natural
// response to "everything this function computed is now stale" (e.g. a
// model update changed the function's semantics).
func (c *Cache) InvalidateFunction(fn string) (int, error) {
	fc, err := c.functionIndexes(fn)
	if err != nil {
		return 0, err
	}
	var ids []ID
	c.entries.forEach(func(e *entry) bool {
		if e.function() == fn {
			ids = append(ids, e.id)
		}
		return true
	})
	removed := 0
	c.admitMu.Lock()
	for _, id := range ids {
		if c.removeEntryLocked(id, false) != nil {
			removed++
		}
	}
	c.admitMu.Unlock()
	for _, ki := range fc.kis {
		ki.tuner.Reset()
	}
	c.ctr.invalidations.Add(int64(removed))
	return removed, nil
}
