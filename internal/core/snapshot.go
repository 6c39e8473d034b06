package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/index"
	"repro/internal/vec"
)

// Snapshot persistence: the paper notes deduplication works across long
// gaps — "the interval could easily be days or longer provided there is
// enough space to store the cached results" (§2.4) — which on a phone
// means surviving service restarts. WriteSnapshot serializes the cache's
// functions, key types, tuner thresholds, and entries; ReadSnapshot
// merges a snapshot into a cache. Key-type extractors and custom metrics
// cannot cross the serialization boundary: restored key types use their
// named built-in metric, and values must be of a gob-serializable basic
// type (entries with other value types are skipped and counted).

func init() {
	gob.Register(vec.Vector{})
	gob.Register([]byte(nil))
}

// SnapshotStats reports what a snapshot operation covered.
type SnapshotStats struct {
	// Functions is the number of function tables written/merged.
	Functions int
	// Entries is the number of entries written/restored.
	Entries int
	// Skipped counts entries left out (non-serializable value, or on
	// restore an expired entry).
	Skipped int
}

// snapshot wire structures (exported fields for gob).
type snapFile struct {
	Version   int
	Now       int64 // clock time at capture, for TTL rebasing
	Functions []snapFunction
	Entries   []snapEntry
}

type snapFunction struct {
	Name     string
	KeyTypes []snapKeyType
}

type snapKeyType struct {
	Name      string
	Metric    string
	Index     string
	Dim       int
	Threshold float64
	Active    bool
}

type snapEntry struct {
	Function    string
	Keys        map[string]vec.Vector
	Value       any
	CostNanos   int64
	Size        int
	AccessCount int64
	ExpiresAt   int64
	App         string
}

// serializableValue reports whether gob can round-trip v under the
// registrations above.
func serializableValue(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte, vec.Vector:
		return true
	}
	return false
}

// WriteSnapshot serializes the cache state to w. It captures a
// consistent view by holding the function-table and admission read
// locks (plus each key index's read lock while walking its members),
// following the documented lock order; concurrent lookups proceed,
// writes wait.
func (c *Cache) WriteSnapshot(w io.Writer) (SnapshotStats, error) {
	now := c.clk.Now()
	c.maybePurgeExpired(now)
	file := snapFile{Version: 1, Now: now.UnixNano()}

	c.funcsMu.RLock()
	// entryKeys[id][keyType] for each function the entry belongs to.
	entryFuncs := make(map[ID]string)
	entryKeys := make(map[ID]map[string]vec.Vector)
	for fnName, fc := range c.funcs {
		sf := snapFunction{Name: fnName}
		for _, ktName := range fc.order {
			ki := fc.keyTypes[ktName]
			ts := ki.tuner.Stats()
			sf.KeyTypes = append(sf.KeyTypes, snapKeyType{
				Name:      ktName,
				Metric:    ki.spec.Metric.Name(),
				Index:     string(ki.spec.Index),
				Dim:       ki.spec.Dim,
				Threshold: ts.Threshold,
				Active:    ts.Active,
			})
			ki.mu.RLock()
			for id, key := range ki.members {
				entryFuncs[id] = fnName
				if entryKeys[id] == nil {
					entryKeys[id] = make(map[string]vec.Vector, 2)
				}
				entryKeys[id][ktName] = key
			}
			ki.mu.RUnlock()
		}
		file.Functions = append(file.Functions, sf)
	}
	var stats SnapshotStats
	stats.Functions = len(file.Functions)
	c.entries.forEach(func(e *entry) bool {
		if !serializableValue(e.value) {
			stats.Skipped++
			return true
		}
		file.Entries = append(file.Entries, snapEntry{
			Function:    entryFuncs[e.id],
			Keys:        entryKeys[e.id],
			Value:       e.value,
			CostNanos:   int64(e.cost),
			Size:        e.size,
			AccessCount: e.accessCount.Load(),
			ExpiresAt:   e.expiresAt.UnixNano(),
			App:         e.app,
		})
		stats.Entries++
		return true
	})
	c.funcsMu.RUnlock()

	if err := gob.NewEncoder(w).Encode(&file); err != nil {
		return stats, fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return stats, nil
}

// ReadSnapshot merges the snapshot from r into the cache: functions and
// key types are registered (with named built-in metrics and no
// extractors), tuner thresholds restored, and unexpired entries
// re-inserted with their recorded cost, access count, and remaining TTL.
// Entries are adopted one at a time with the same insert-then-publish
// ordering as Put, so a restore can overlap live traffic.
func (c *Cache) ReadSnapshot(r io.Reader) (SnapshotStats, error) {
	var file snapFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return SnapshotStats{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if file.Version != 1 {
		return SnapshotStats{}, fmt.Errorf("core: unsupported snapshot version %d", file.Version)
	}
	var stats SnapshotStats
	for _, sf := range file.Functions {
		specs := make([]KeyTypeSpec, 0, len(sf.KeyTypes))
		for _, kt := range sf.KeyTypes {
			metric, err := vec.MetricByName(kt.Metric)
			if err != nil {
				return stats, err
			}
			specs = append(specs, KeyTypeSpec{
				Name:   kt.Name,
				Metric: metric,
				Index:  index.Kind(kt.Index),
				Dim:    kt.Dim,
			})
		}
		if err := c.RegisterFunction(sf.Name, specs...); err != nil {
			return stats, err
		}
		for _, kt := range sf.KeyTypes {
			if kt.Active {
				if err := c.ForceThreshold(sf.Name, kt.Name, kt.Threshold); err != nil {
					return stats, err
				}
			}
		}
		stats.Functions++
	}

	now := c.clk.Now()
	snapNow := time.Unix(0, file.Now)
	for _, se := range file.Entries {
		remaining := time.Unix(0, se.ExpiresAt).Sub(snapNow)
		if remaining <= 0 || se.Function == "" || len(se.Keys) == 0 {
			stats.Skipped++
			continue
		}
		c.funcsMu.RLock()
		fc := c.funcs[se.Function]
		var names []string
		var kis []*keyIndex
		if fc != nil {
			for ktName := range se.Keys {
				if ki := fc.keyTypes[ktName]; ki != nil {
					names = append(names, ktName)
					kis = append(kis, ki)
				}
			}
		}
		c.funcsMu.RUnlock()
		if fc == nil {
			stats.Skipped++
			continue
		}
		id := ID(c.nextID.Add(1))
		e := &entry{
			id:         id,
			value:      se.Value,
			cost:       time.Duration(se.CostNanos),
			size:       se.Size,
			app:        se.App,
			insertedAt: now,
			expiresAt:  now.Add(remaining),
		}
		e.accessCount.Store(se.AccessCount)
		e.lastAccess.Store(now.UnixNano())
		inserted := false
		for i, ki := range kis {
			key := se.Keys[names[i]]
			if len(key) == 0 {
				continue
			}
			if ki.insert(id, key) {
				e.owners = append(e.owners, ki)
				inserted = true
			}
		}
		if !inserted {
			stats.Skipped++
			continue
		}
		c.admitMu.Lock()
		c.publishLocked(e)
		c.enqueueLocked(e)
		c.admitMu.Unlock()
		stats.Entries++
	}
	c.admitMu.Lock()
	c.evictLocked(now)
	c.admitMu.Unlock()
	return stats, nil
}
