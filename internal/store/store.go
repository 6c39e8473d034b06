package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// File layout under Config.Dir:
//
//	wal-<seq>.seg    append-only segment logs, seq strictly increasing
//	snap-<seq>.snap  snapshots; <seq> is the segment that was ACTIVE
//	                 when the capture started, so recovery = newest
//	                 valid snapshot + replay of segments with seq >=
//	                 that number (replay is idempotent by entry ID,
//	                 absorbing records that landed in the active
//	                 segment before the capture ran)
//	*.tmp            in-flight snapshot writes; ignored by recovery
//
// Compaction deletes segments and snapshots strictly older than the
// newest durable snapshot. A crash at ANY point leaves a recoverable
// directory: unreferenced old files are re-deleted on the next
// compaction, a torn snapshot .tmp is ignored, and a torn segment tail
// stops replay at the last whole record.

const (
	segMagic  = "PLKSEG01"
	snapMagic = "PLKSNP01"
)

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every appended record: no admitted entry
	// is ever lost, at a per-put disk-latency cost.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval (the default) syncs on a background timer
	// (Config.FsyncInterval): a crash loses at most the last interval
	// of appends.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS page cache; segment rolls
	// and snapshots still sync.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates an operator-supplied policy name.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

// Config configures a Log. The zero value of every field takes the
// documented default.
type Config struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// SegmentBytes rolls the active segment past this size (default 8
	// MiB).
	SegmentBytes int64
	// Fsync selects the append durability policy (default interval).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SnapshotInterval is Run's snapshot+compaction cadence (default
	// 1m).
	SnapshotInterval time.Duration
	// Logf, when non-nil, receives operational messages (append
	// failures, snapshot errors).
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 8 << 20
	}
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncInterval
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 100 * time.Millisecond
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = time.Minute
	}
	return cfg
}

// Log is the durable store: it implements core.Store (the append
// hooks), writes snapshots, recovers state at boot, and compacts
// superseded files. All methods are safe for concurrent use. Append
// failures never propagate to the cache — they are counted, reported
// through Logf once per failure streak, and the log keeps serving; a
// sick disk degrades durability, not lookups.
type Log struct {
	cfg Config

	mu       sync.Mutex
	seg      *os.File
	w        *bufio.Writer
	segSeq   uint64
	segBytes int64
	dirty    bool
	closed   bool
	encBuf   []byte
	inErr    bool // a failure streak is in progress (logged once)

	// snapMu serializes snapshot+compaction cycles.
	snapMu sync.Mutex

	flushDone chan struct{}
	flushStop chan struct{}

	appends          atomic.Int64
	appendErrors     atomic.Int64
	bytesWritten     atomic.Int64
	fsyncs           atomic.Int64
	snapshots        atomic.Int64
	snapshotErrors   atomic.Int64
	compactedSegs    atomic.Int64
	skippedValues    atomic.Int64
	segments         atomic.Int64
	recoveryNanos    atomic.Int64
	recoveredEntries atomic.Int64
}

// Open creates or reopens the data directory and starts a fresh active
// segment past every existing one. Existing segments and snapshots are
// left untouched for Recover, which must run before the cache serves
// traffic (Open → Recover → core.Cache.Restore → serve).
func Open(cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}
	segs, _, err := scanDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var maxSeq uint64
	for _, s := range segs {
		if s > maxSeq {
			maxSeq = s
		}
	}
	l := &Log{cfg: cfg}
	l.segments.Store(int64(len(segs)))
	if err := l.openSegmentLocked(maxSeq + 1); err != nil {
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// scanDir lists segment and snapshot sequence numbers, both ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan data dir: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", seq))
}

// openSegmentLocked creates segment seq, writes its magic, and makes
// its directory entry durable. Caller holds mu (or is Open).
func (l *Log) openSegmentLocked(seq uint64) error {
	path := segPath(l.cfg.Dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: segment magic: %w", err)
	}
	if err := fsyncDir(l.cfg.Dir); err != nil {
		f.Close()
		return err
	}
	l.seg, l.w, l.segSeq = f, w, seq
	l.segBytes = int64(len(segMagic))
	l.dirty = true
	l.segments.Add(1)
	return nil
}

// logf reports through the configured sink, if any.
func (l *Log) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// LogRegister implements core.Store.
func (l *Log) LogRegister(fn string, keyTypes []core.StoreKeyType) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.encBuf = appendRegister(l.encBuf[:0], fn, keyTypes)
	l.appendLocked(l.encBuf)
}

// LogPut implements core.Store. Entries whose value type the codec
// cannot persist are skipped and counted — they live until restart,
// the same set CaptureState leaves out of a snapshot.
func (l *Log) LogPut(rec core.StoreEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := appendEntryBody(append(l.encBuf[:0], recPut), &rec)
	if !ok {
		l.encBuf = b
		l.skippedValues.Add(1)
		return
	}
	l.encBuf = b
	l.appendLocked(l.encBuf)
}

// LogDelete implements core.Store.
func (l *Log) LogDelete(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.encBuf = binary.AppendUvarint(append(l.encBuf[:0], recDelete), id)
	l.appendLocked(l.encBuf)
}

// appendLocked frames payload into the active segment and applies the
// fsync and roll policies. Caller holds mu.
func (l *Log) appendLocked(payload []byte) {
	if l.closed || l.seg == nil {
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	_, err := l.w.Write(hdr[:])
	if err == nil {
		_, err = l.w.Write(payload)
	}
	if err != nil {
		l.noteErrLocked("append", err)
		return
	}
	n := int64(len(hdr) + len(payload))
	l.segBytes += n
	l.bytesWritten.Add(n)
	l.appends.Add(1)
	l.dirty = true
	if l.cfg.Fsync == FsyncAlways {
		if err := l.flushSyncLocked(); err != nil {
			l.noteErrLocked("fsync", err)
			return
		}
	}
	if l.segBytes >= l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			l.noteErrLocked("roll", err)
			return
		}
	}
	l.inErr = false
}

// noteErrLocked counts an append-path failure and reports the first of
// a streak, so a dead disk does not flood the daemon log.
func (l *Log) noteErrLocked(op string, err error) {
	l.appendErrors.Add(1)
	if !l.inErr {
		l.inErr = true
		l.logf("store: %s failed (durability degraded until it recovers): %v", op, err)
	}
}

// flushSyncLocked drains the buffered writer and fsyncs the active
// segment. Caller holds mu.
func (l *Log) flushSyncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := syncFile(l.seg); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	l.dirty = false
	return nil
}

// rollLocked finishes the active segment (flush + fsync — a completed
// segment is a durability boundary regardless of policy) and starts the
// next one. Caller holds mu.
func (l *Log) rollLocked() error {
	if err := l.flushSyncLocked(); err != nil {
		return err
	}
	old := l.seg
	if err := l.openSegmentLocked(l.segSeq + 1); err != nil {
		return err // keep writing to the old segment
	}
	return old.Close()
}

// flushLoop is the FsyncInterval background syncer.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				if err := l.flushSyncLocked(); err != nil {
					l.noteErrLocked("interval fsync", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Sync forces buffered appends to stable storage, whatever the policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dirty {
		return nil
	}
	return l.flushSyncLocked()
}

// Close flushes, syncs, and closes the active segment. Appends after
// Close are dropped silently (the cache treats the store as
// fire-and-forget during shutdown).
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.w.Flush()
	if serr := syncFile(l.seg); err == nil {
		err = serr
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot rolls the log, captures the cache's durable state, publishes
// it as snap-<activeSeq>.snap with full fsync discipline, and compacts
// every file the new snapshot supersedes. Records appended between the
// roll and the capture land in both the snapshot and the replayed
// segment; replay is idempotent by entry ID, so the overlap is
// harmless.
func (l *Log) Snapshot(c *core.Cache) (*core.DurableState, error) {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("store: snapshot on closed log")
	}
	if err := l.rollLocked(); err != nil {
		l.mu.Unlock()
		l.snapshotErrors.Add(1)
		return nil, fmt.Errorf("store: pre-snapshot roll: %w", err)
	}
	snapSeq := l.segSeq
	l.mu.Unlock()

	state := c.CaptureState()
	if state.Skipped > 0 {
		l.skippedValues.Add(int64(state.Skipped))
	}
	if err := writeSnapshot(snapPath(l.cfg.Dir, snapSeq), state); err != nil {
		l.snapshotErrors.Add(1)
		return nil, err
	}
	l.snapshots.Add(1)
	l.compact(snapSeq)
	return state, nil
}

// compact deletes segments and snapshots strictly older than keepSeq.
// Failures are reported and retried implicitly by the next cycle.
func (l *Log) compact(keepSeq uint64) {
	segs, snaps, err := scanDir(l.cfg.Dir)
	if err != nil {
		l.logf("store: compaction scan: %v", err)
		return
	}
	removed := 0
	for _, seq := range segs {
		if seq >= keepSeq {
			continue
		}
		if err := os.Remove(segPath(l.cfg.Dir, seq)); err != nil {
			l.logf("store: compaction: %v", err)
			continue
		}
		removed++
		l.compactedSegs.Add(1)
		l.segments.Add(-1)
	}
	for _, seq := range snaps {
		if seq >= keepSeq {
			continue
		}
		if err := os.Remove(snapPath(l.cfg.Dir, seq)); err != nil {
			l.logf("store: compaction: %v", err)
		}
	}
	if removed > 0 {
		if err := fsyncDir(l.cfg.Dir); err != nil {
			l.logf("store: compaction: %v", err)
		}
	}
}

// Run snapshots and compacts on Config.SnapshotInterval until ctx ends,
// then takes one final snapshot so a graceful shutdown restarts with an
// empty tail.
func (l *Log) Run(ctx context.Context, c *core.Cache) {
	t := time.NewTicker(l.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			if _, err := l.Snapshot(c); err != nil {
				l.logf("store: final snapshot: %v", err)
			}
			return
		case <-t.C:
			if _, err := l.Snapshot(c); err != nil {
				l.logf("store: periodic snapshot: %v", err)
			}
		}
	}
}

// Stats is a point-in-time view of the log's activity counters.
type Stats struct {
	Appends          int64
	AppendErrors     int64
	BytesWritten     int64
	Fsyncs           int64
	Snapshots        int64
	SnapshotErrors   int64
	CompactedSegs    int64
	SkippedValues    int64
	Segments         int64
	RecoveredEntries int64
	RecoveryDuration time.Duration
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:          l.appends.Load(),
		AppendErrors:     l.appendErrors.Load(),
		BytesWritten:     l.bytesWritten.Load(),
		Fsyncs:           l.fsyncs.Load(),
		Snapshots:        l.snapshots.Load(),
		SnapshotErrors:   l.snapshotErrors.Load(),
		CompactedSegs:    l.compactedSegs.Load(),
		SkippedValues:    l.skippedValues.Load(),
		Segments:         l.segments.Load(),
		RecoveredEntries: l.recoveredEntries.Load(),
		RecoveryDuration: time.Duration(l.recoveryNanos.Load()),
	}
}

// Instrument registers the log's metrics with a telemetry registry, all
// func-backed reads of counters the log already maintains.
func (l *Log) Instrument(r *telemetry.Registry) {
	r.Counter("potluck_store_appends_total", "Records appended to the durable segment log.").
		SetFunc(l.appends.Load)
	r.Counter("potluck_store_append_errors_total", "Durable-log append failures (durability degraded, serving unaffected).").
		SetFunc(l.appendErrors.Load)
	r.Counter("potluck_store_bytes_written_total", "Bytes appended to the durable segment log.").
		SetFunc(l.bytesWritten.Load)
	r.Counter("potluck_store_fsyncs_total", "fsync calls issued by the durable store.").
		SetFunc(l.fsyncs.Load)
	r.Counter("potluck_store_snapshots_total", "Durable snapshots published.").
		SetFunc(l.snapshots.Load)
	r.Counter("potluck_store_snapshot_errors_total", "Durable snapshot attempts that failed.").
		SetFunc(l.snapshotErrors.Load)
	r.Counter("potluck_store_compacted_segments_total", "Log segments deleted by compaction.").
		SetFunc(l.compactedSegs.Load)
	r.Counter("potluck_store_skipped_values_total", "Entries not persisted because their value type cannot cross a restart.").
		SetFunc(l.skippedValues.Load)
	r.Gauge("potluck_store_segments", "Live segment files, including the active one.").
		SetFunc(func() float64 { return float64(l.segments.Load()) })
	r.Gauge("potluck_store_recovery_seconds", "Wall time of the boot recovery pass.").
		SetFunc(func() float64 { return float64(l.recoveryNanos.Load()) / 1e9 })
	r.Gauge("potluck_store_recovered_entries", "Entries restored by the boot recovery pass.").
		SetFunc(func() float64 { return float64(l.recoveredEntries.Load()) })
}
