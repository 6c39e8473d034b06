package store

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// RecoveryStats reports what a boot recovery pass found.
type RecoveryStats struct {
	// SnapshotSeq is the sequence of the snapshot used (0 when none).
	SnapshotSeq uint64
	// SnapshotUsed reports whether a valid snapshot contributed.
	SnapshotUsed bool
	// InvalidSnapshots counts snapshot files that failed validation and
	// were passed over for an older one.
	InvalidSnapshots int
	// SegmentsReplayed is the number of segment files read.
	SegmentsReplayed int
	// RecordsReplayed is the number of valid log records applied.
	RecordsReplayed int
	// TornTail reports that replay stopped at a torn or corrupt record
	// — the expected signature of a crash mid-append.
	TornTail bool
	// Functions and Entries size the state handed to core.Cache.Restore.
	Functions int
	Entries   int
	// Duration is the wall time of the pass.
	Duration time.Duration
}

// Recover rebuilds the durable state from disk: the newest valid
// snapshot plus a replay of every segment the snapshot does not cover.
// Replay is idempotent by entry ID — a put upserts, a delete removes —
// so records duplicated between a snapshot capture and its pre-roll are
// harmless. Replay stops at the first torn record (a crash mid-append
// tears only the tail of the newest segment; anything after a tear is
// unordered noise). The caller feeds the returned state to
// core.Cache.Restore, which drops entries whose absolute expiry passed
// while the process was down.
//
// Call Recover once, after Open and before the cache serves traffic.
func (l *Log) Recover() (*core.DurableState, RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats

	segs, snaps, err := scanDir(l.cfg.Dir)
	if err != nil {
		return nil, stats, err
	}

	// Newest valid snapshot wins; invalid ones (torn by a crash that
	// beat atomicWriteFile's rename, or corrupted on disk) fall through
	// to older generations, and with none left recovery is a pure log
	// replay from the oldest surviving segment.
	state := &core.DurableState{}
	var snapSeq uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshot(snapPath(l.cfg.Dir, snaps[i]))
		if err != nil {
			stats.InvalidSnapshots++
			l.logf("store: ignoring snapshot %d: %v", snaps[i], err)
			continue
		}
		state, snapSeq = s, snaps[i]
		stats.SnapshotUsed, stats.SnapshotSeq = true, snapSeq
		break
	}

	entries := make(map[uint64]*core.StoreEntry, len(state.Entries))
	for i := range state.Entries {
		entries[state.Entries[i].ID] = &state.Entries[i]
	}
	funcs := make(map[string]*core.DurableFunction, len(state.Functions))
	order := make([]string, 0, len(state.Functions))
	for i := range state.Functions {
		funcs[state.Functions[i].Name] = &state.Functions[i]
		order = append(order, state.Functions[i].Name)
	}
	maxID := state.MaxID

replay:
	for _, seq := range segs {
		if seq < snapSeq || seq >= l.segSeq {
			continue // superseded by the snapshot / our own empty active segment
		}
		data, err := os.ReadFile(segPath(l.cfg.Dir, seq))
		if err != nil {
			return nil, stats, fmt.Errorf("store: read segment %d: %w", seq, err)
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			// An empty or partially created segment: a crash between
			// file creation and the magic reaching disk. Nothing in it.
			stats.TornTail = true
			break replay
		}
		data = data[len(segMagic):]
		stats.SegmentsReplayed++
		for {
			payload, rest, ok, torn := nextRecord(data)
			if torn {
				stats.TornTail = true
				break replay
			}
			if !ok {
				break
			}
			data = rest
			r := &reader{b: payload}
			switch typ := r.byte(); typ {
			case recRegister:
				fn, kts := r.register()
				if r.err != nil {
					stats.TornTail = true
					break replay
				}
				applyRegister(funcs, &order, fn, kts)
			case recPut:
				rec := r.entryBody()
				if r.err != nil {
					stats.TornTail = true
					break replay
				}
				if rec.ID > maxID {
					maxID = rec.ID
				}
				cp := rec
				entries[rec.ID] = &cp
			case recDelete:
				id := r.uvarint()
				if r.err != nil {
					stats.TornTail = true
					break replay
				}
				delete(entries, id)
			default:
				// A record type from a future format version: stop, the
				// same way a torn tail stops replay.
				stats.TornTail = true
				break replay
			}
			stats.RecordsReplayed++
		}
	}

	state.MaxID = maxID
	state.Functions = make([]core.DurableFunction, 0, len(order))
	for _, name := range order {
		state.Functions = append(state.Functions, *funcs[name])
	}
	state.Entries = make([]core.StoreEntry, 0, len(entries))
	for _, e := range entries {
		state.Entries = append(state.Entries, *e)
	}
	sort.Slice(state.Entries, func(i, j int) bool { return state.Entries[i].ID < state.Entries[j].ID })

	stats.Functions = len(state.Functions)
	stats.Entries = len(state.Entries)
	stats.Duration = time.Since(start)
	l.recoveryNanos.Store(int64(stats.Duration))
	l.recoveredEntries.Store(int64(stats.Entries))
	return state, stats, nil
}

// applyRegister replays one RegisterFunction call onto the merged
// function table. Mirroring the live call's contract (§4.3), a
// re-registration resets each key type's tuner; lookup counters carry
// over for key types that survive, and key types absent from the new
// spec are dropped along with their counters.
func applyRegister(funcs map[string]*core.DurableFunction, order *[]string, fn string, kts []core.StoreKeyType) {
	df := funcs[fn]
	if df == nil {
		df = &core.DurableFunction{Name: fn}
		funcs[fn] = df
		*order = append(*order, fn)
	}
	prev := make(map[string]*core.DurableKeyType, len(df.KeyTypes))
	for i := range df.KeyTypes {
		prev[df.KeyTypes[i].Name] = &df.KeyTypes[i]
	}
	next := make([]core.DurableKeyType, 0, len(kts))
	for _, kt := range kts {
		dk := core.DurableKeyType{StoreKeyType: kt}
		if p := prev[kt.Name]; p != nil {
			dk.Hits, dk.Misses, dk.Dropouts = p.Hits, p.Misses, p.Dropouts
		}
		next = append(next, dk)
	}
	df.KeyTypes = next
}
