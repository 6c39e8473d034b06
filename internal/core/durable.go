package core

import (
	"fmt"
	"time"

	"repro/internal/index"
	"repro/internal/vec"
)

// Durability layer (ROADMAP item 2). The cache itself stays a pure
// in-memory structure; durability is a set of hooks behind the Store
// interface. When Config.Store is nil — the default — the hooks compile
// down to one nil check on the write paths and nothing at all on the
// lookup path, so the in-memory configuration pays zero cost. When a
// store is attached, the cache logs every mutation that must survive a
// restart:
//
//   - LogRegister on function registration (under funcsMu, so a put
//     that resolved the function always follows its registration in
//     the log),
//   - LogPut on admission (under admitMu, so a racing eviction of the
//     brand-new entry cannot write its delete record first and
//     resurrect the entry at replay),
//   - LogDelete on eviction and invalidation (under admitMu, where all
//     such removals already happen).
//
// Expirations are deliberately NOT logged: every persisted record
// carries its absolute expiry deadline, and recovery drops records
// whose deadline has passed — including entries that expired while the
// process was down. The store calls CaptureState to write snapshots and
// Restore to rebuild a cache from a recovered state; see internal/store
// for the segment-log implementation.

// Store receives the cache's durability events. Implementations
// synchronize internally and must never call back into the cache: the
// hooks run under cache locks (funcsMu or admitMu), making the store a
// leaf in the documented lock hierarchy. Hook failures are the store's
// to absorb (count, log, degrade) — the cache treats every append as
// fire-and-forget so a sick disk degrades durability, not serving.
type Store interface {
	// LogRegister records a RegisterFunction call: the function name and
	// its normalized key-type specs (duplicates removed, defaults
	// applied, metrics and index kinds by name).
	LogRegister(fn string, keyTypes []StoreKeyType)
	// LogPut records an admitted entry.
	LogPut(rec StoreEntry)
	// LogDelete records a removal before the entry's deadline (eviction
	// or invalidation). Expirations are not logged.
	LogDelete(id uint64)
}

// StoreKeyType is the serializable form of a KeyTypeSpec: extractors
// cannot cross a process boundary, and metrics travel by name (only the
// built-in named metrics survive a restart).
type StoreKeyType struct {
	Name   string
	Metric string
	Index  string
	Dim    int
}

// StoreKey pairs one key type with the entry's key under it.
type StoreKey struct {
	KeyType string
	Key     vec.Vector
}

// StoreEntry is the durable form of one cache entry. ID is the live
// entry ID — recovery preserves it, and Cache.Restore resumes ID
// allocation past the largest restored ID so log replay across restarts
// never aliases an old record to a new entry. All times are absolute
// UnixNano: recovery compares ExpiresAtNanos against the boot clock, so
// entries that expired while the process was down are dropped, not
// resurrected with a rebased TTL.
type StoreEntry struct {
	ID              uint64
	Function        string
	App             string
	CostNanos       int64
	Size            int
	AccessCount     int64
	InsertedAtNanos int64
	LastAccessNanos int64
	ExpiresAtNanos  int64
	Keys            []StoreKey
	Value           any
}

// DurableKeyType is one key type's full durable state: its spec plus
// the tuner and the lookup-outcome counters, so a restart neither
// re-learns thresholds from scratch nor zeroes the hit-rate history.
type DurableKeyType struct {
	StoreKeyType
	Tuner    TunerState
	Hits     int64
	Misses   int64
	Dropouts int64
}

// DurableFunction is one function's durable state.
type DurableFunction struct {
	Name     string
	Puts     int64
	KeyTypes []DurableKeyType
}

// DurableState is a point-in-time capture of everything the cache needs
// to survive a restart: function tables with tuner state and counters,
// live entries, and the ID watermark. It is the unit snapshots encode
// and recovery rebuilds.
type DurableState struct {
	CapturedAtNanos int64
	MaxID           uint64
	Functions       []DurableFunction
	Entries         []StoreEntry
	// Skipped counts entries left out of the capture because their
	// value type cannot be persisted (see serializableValue).
	Skipped int
}

// serializableValue reports whether a value can be persisted: the one
// list of value types the durable codec (internal/store) round-trips.
// Entries holding anything else live until restart and are counted as
// skipped.
func serializableValue(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte, vec.Vector:
		return true
	}
	return false
}

// CaptureState captures the cache's durable state under the documented
// lock order (funcsMu read lock, per-key-index read locks, never
// admitMu), so concurrent lookups proceed and writers wait at most a
// read share. Expired entries are purged first and excluded, so a
// snapshot never embalms a dead entry.
func (c *Cache) CaptureState() *DurableState {
	now := c.clk.Now()
	c.maybePurgeExpired(now)
	state := &DurableState{CapturedAtNanos: now.UnixNano(), MaxID: c.nextID.Load()}

	c.funcsMu.RLock()
	entryFuncs := make(map[ID]string)
	entryKeys := make(map[ID][]StoreKey)
	for fnName, fc := range c.funcs {
		df := DurableFunction{Name: fnName, Puts: fc.stats.puts.Load()}
		for i, ktName := range fc.order {
			ki := fc.kis[i]
			df.KeyTypes = append(df.KeyTypes, DurableKeyType{
				StoreKeyType: StoreKeyType{
					Name:   ktName,
					Metric: ki.spec.Metric.Name(),
					Index:  string(ki.spec.Index),
					Dim:    ki.spec.Dim,
				},
				Tuner:    ki.tuner.ExportState(),
				Hits:     ki.ctr.hits.Load(),
				Misses:   ki.ctr.misses.Load(),
				Dropouts: ki.ctr.dropouts.Load(),
			})
			ki.mu.RLock()
			for id, key := range ki.members {
				entryFuncs[id] = fnName
				entryKeys[id] = append(entryKeys[id], StoreKey{KeyType: ktName, Key: key})
			}
			ki.mu.RUnlock()
		}
		state.Functions = append(state.Functions, df)
	}
	c.entries.forEach(func(e *entry) bool {
		if !e.expiresAt.After(now) {
			return true // expired between purge and walk; recovery would drop it anyway
		}
		if !serializableValue(e.value) {
			state.Skipped++
			return true
		}
		state.Entries = append(state.Entries, StoreEntry{
			ID:              uint64(e.id),
			Function:        entryFuncs[e.id],
			App:             e.app,
			CostNanos:       int64(e.cost),
			Size:            e.size,
			AccessCount:     e.accessCount.Load(),
			InsertedAtNanos: e.insertedAt.UnixNano(),
			LastAccessNanos: e.lastAccess.Load(),
			ExpiresAtNanos:  e.expiresAt.UnixNano(),
			Keys:            entryKeys[e.id],
			Value:           e.value,
		})
		return true
	})
	c.funcsMu.RUnlock()
	return state
}

// RestoreStats reports what a Restore covered.
type RestoreStats struct {
	// Functions is the number of function tables registered.
	Functions int
	// Entries is the number of entries re-admitted.
	Entries int
	// Expired counts recovered entries dropped because their absolute
	// deadline passed (typically while the process was down).
	Expired int
	// Skipped counts entries dropped for other reasons: unknown
	// function, no usable key (none non-empty and of its key type's
	// length), or an ID already live in the cache.
	Skipped int
}

// Restore rebuilds the cache from a recovered durable state: functions
// and key types are registered (named built-in metrics, no extractors),
// tuner state and counters restored exactly as captured, and unexpired
// entries re-admitted through the normal admission structures — index
// insert, then entry-table publish, then expiry enqueue — under their
// ORIGINAL IDs, with one capacity-enforcement pass at the end. Entries
// whose absolute deadline has passed are dropped here, never admitted,
// so a lookup can never return an expired recovered entry.
//
// Replayed entries do not feed the threshold tuners: the tuner state in
// the capture is authoritative (re-feeding would double-count the
// observations it already absorbed). Restore is intended for boot, but
// may overlap live traffic; while it runs, registrations and entry
// admissions are not re-logged to the attached store (their records are
// what is being replayed).
func (c *Cache) Restore(state *DurableState) (RestoreStats, error) {
	var stats RestoreStats
	if state == nil {
		return stats, nil
	}
	c.restoring.Store(true)
	defer c.restoring.Store(false)

	for _, df := range state.Functions {
		specs := make([]KeyTypeSpec, 0, len(df.KeyTypes))
		for _, kt := range df.KeyTypes {
			metric, err := vec.MetricByName(kt.Metric)
			if err != nil {
				return stats, fmt.Errorf("core: restore function %q: %w", df.Name, err)
			}
			specs = append(specs, KeyTypeSpec{
				Name:   kt.Name,
				Metric: metric,
				Index:  index.Kind(kt.Index),
				Dim:    kt.Dim,
			})
		}
		if err := c.RegisterFunction(df.Name, specs...); err != nil {
			return stats, err
		}
		fc, err := c.functionIndexes(df.Name)
		if err != nil {
			return stats, err
		}
		fc.stats.puts.Store(df.Puts)
		for _, kt := range df.KeyTypes {
			ki := fc.keyTypes[kt.Name]
			if ki == nil {
				continue
			}
			ki.tuner.RestoreState(kt.Tuner)
			ki.ctr.hits.Store(kt.Hits)
			ki.ctr.misses.Store(kt.Misses)
			ki.ctr.dropouts.Store(kt.Dropouts)
		}
		stats.Functions++
	}

	if max := state.MaxID; max > c.nextID.Load() {
		c.nextID.Store(max)
	}
	now := c.clk.Now()
	for i := range state.Entries {
		switch c.restoreEntry(&state.Entries[i], now) {
		case restoredOK:
			stats.Entries++
		case restoredExpired:
			stats.Expired++
		default:
			stats.Skipped++
		}
	}
	c.admitMu.Lock()
	c.evictLocked()
	c.admitMu.Unlock()
	return stats, nil
}

type restoreOutcome int

const (
	restoredOK restoreOutcome = iota
	restoredExpired
	restoredSkipped
)

// restoreEntry re-admits one recovered entry under its original ID,
// following Put's publication order (index insert, then entry-table
// publish and heap enqueue under admitMu) so a restore can overlap live
// traffic.
func (c *Cache) restoreEntry(rec *StoreEntry, now time.Time) restoreOutcome {
	if rec.ExpiresAtNanos <= now.UnixNano() {
		return restoredExpired
	}
	if rec.Function == "" || len(rec.Keys) == 0 {
		return restoredSkipped
	}
	id := ID(rec.ID)
	if rec.ID > c.nextID.Load() {
		// A tail record past the snapshot's watermark; keep allocation
		// ahead of every ID the log has ever issued.
		c.nextID.Store(rec.ID)
	}
	if c.entries.load(id) != nil {
		return restoredSkipped // ID already live (double restore)
	}
	c.funcsMu.RLock()
	fc := c.funcs[rec.Function]
	c.funcsMu.RUnlock()
	if fc == nil {
		return restoredSkipped
	}
	e := &entry{
		id:         id,
		value:      rec.Value,
		cost:       time.Duration(rec.CostNanos),
		size:       rec.Size,
		app:        rec.App,
		insertedAt: timeFromNanos(rec.InsertedAtNanos, now),
		expiresAt:  time.Unix(0, rec.ExpiresAtNanos),
	}
	if rec.AccessCount > 0 {
		e.accessCount.Store(rec.AccessCount)
	} else {
		e.accessCount.Store(1)
	}
	if rec.LastAccessNanos > 0 {
		e.lastAccess.Store(rec.LastAccessNanos)
	} else {
		e.lastAccess.Store(now.UnixNano())
	}
	for _, sk := range rec.Keys {
		// insert's door refuses an empty key or one of another length.
		if ki := fc.keyTypes[sk.KeyType]; ki != nil && ki.insert(id, sk.Key) != nil {
			e.owners = append(e.owners, ki)
		}
	}
	if len(e.owners) == 0 {
		return restoredSkipped
	}
	c.admitMu.Lock()
	c.publishLocked(e)
	c.enqueueLocked(e)
	c.admitMu.Unlock()
	return restoredOK
}

// timeFromNanos converts a recorded UnixNano, falling back to now for
// records from before the field existed.
func timeFromNanos(ns int64, now time.Time) time.Time {
	if ns == 0 {
		return now
	}
	return time.Unix(0, ns)
}
