package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// The kill-point matrix: each test simulates a crash at one point of
// the write/snapshot/compaction protocol by mutilating the files the
// way the interrupted step would leave them, then asserts recovery
// restores exactly the committed state.

// buildDir populates a data directory with n puts (and returns the
// cache it built, still attached to the abandoned log, for reference
// state).
func buildDir(t *testing.T, dir string, n int) *core.Cache {
	t.Helper()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < n; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	return c
}

// newestSegment returns the path of the highest-sequence segment that
// holds data (the abandoned log's active segment).
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scan: segs=%v err=%v", segs, err)
	}
	return segPath(dir, segs[len(segs)-1])
}

func TestCrashTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	buildDir(t, dir, 50)

	// Kill point: mid-append. Chop bytes off the newest segment so its
	// final record is torn.
	path := newestSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if !rstats.TornTail {
		t.Fatalf("torn tail not detected: %+v", rstats)
	}
	if rstats.Entries != 49 {
		t.Fatalf("recovered %d entries, want 49 (all but the torn one)", rstats.Entries)
	}
	for i := 0; i < 49; i++ {
		wantHit(t, c2, float64(i), fmt.Sprintf("v%d", i))
	}
	wantMiss(t, c2, 49)
}

func TestCrashGarbageAfterTear(t *testing.T) {
	dir := t.TempDir()
	buildDir(t, dir, 20)

	// Kill point: a tear followed by stale page-cache garbage. Replay
	// must stop at the tear, not resync onto the garbage.
	f, err := os.OpenFile(newestSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}) // length says 9, only 3 present
	f.Close()

	_, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if !rstats.TornTail || rstats.Entries != 20 {
		t.Fatalf("recovery shape = %+v, want torn tail with 20 entries", rstats)
	}
}

func TestCrashMidSnapshotWrite(t *testing.T) {
	dir := t.TempDir()
	c := buildDir(t, dir, 40)

	// Kill point: mid-snapshot. atomicWriteFile dies before the rename,
	// leaving only a .tmp with a prefix of the data.
	state := c.CaptureState()
	full := snapPath(dir, 99)
	if err := writeSnapshot(full, state); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(full); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full+".tmp", data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if rstats.SnapshotUsed {
		t.Fatalf("recovery consumed an unpublished snapshot: %+v", rstats)
	}
	if rstats.Entries != 40 {
		t.Fatalf("recovered %d entries from the log, want 40", rstats.Entries)
	}
}

func TestCrashTornPublishedSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < 30; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 40; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}

	// Kill point: disk corruption inside the NEWEST published snapshot.
	// Recovery must fall back to an older generation... but compaction
	// already removed it, so here the fallback is: no snapshot, and the
	// segments newer than the bad snapshot. To keep a fallback
	// generation alive, plant an older valid snapshot manually.
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snaps=%v err=%v", snaps, err)
	}
	newest := snapPath(dir, snaps[0])
	older := snapPath(dir, snaps[0]-1)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // corrupt the newest in place
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if rstats.InvalidSnapshots != 1 || !rstats.SnapshotUsed || rstats.SnapshotSeq != snaps[0]-1 {
		t.Fatalf("recovery shape = %+v, want fallback to snapshot %d", rstats, snaps[0]-1)
	}
	if rstats.Entries != 40 {
		t.Fatalf("recovered %d entries, want 40", rstats.Entries)
	}
	for i := 0; i < 40; i++ {
		wantHit(t, c2, float64(i), fmt.Sprintf("v%d", i))
	}
}

// saveDataFiles snapshots every segment and snapshot file in dir so a
// test can undo compaction and keep older generations on disk.
func saveDataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	saved := map[string][]byte{}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		p := segPath(dir, seq)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		saved[p] = b
	}
	for _, seq := range snaps {
		p := snapPath(dir, seq)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		saved[p] = b
	}
	return saved
}

// restoreMissingFiles writes back only the saved files compaction
// removed, leaving the live log's active segment untouched.
func restoreMissingFiles(t *testing.T, dir string, saved map[string][]byte) {
	t.Helper()
	for p, b := range saved {
		if _, err := os.Stat(p); err == nil {
			continue
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryFallsBackTwoSnapshotGenerations corrupts the two newest
// of three published snapshot generations. Recovery must skip both,
// boot from the oldest survivor, and replay every tail segment between
// that snapshot and the crash — the tails behind the two dead
// generations plus the final pre-crash tail — so no committed put is
// lost even when two consecutive snapshot cycles rot on disk.
func TestRecoveryFallsBackTwoSnapshotGenerations(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)

	for i := 0; i < 30; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	if _, err := l.Snapshot(c); err != nil { // generation 1: the survivor
		t.Fatal(err)
	}
	for i := 30; i < 50; i++ { // tail behind generation 2
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	saved := saveDataFiles(t, dir)
	if _, err := l.Snapshot(c); err != nil { // generation 2
		t.Fatal(err)
	}
	restoreMissingFiles(t, dir, saved)

	for i := 50; i < 65; i++ { // tail behind generation 3
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	saved = saveDataFiles(t, dir)
	if _, err := l.Snapshot(c); err != nil { // generation 3
		t.Fatal(err)
	}
	restoreMissingFiles(t, dir, saved)

	for i := 65; i < 70; i++ { // final tail, never snapshotted
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}

	// Crash, then disk corruption eats the two NEWEST snapshots.
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 3 {
		t.Fatalf("snaps=%v err=%v, want 3 generations on disk", snaps, err)
	}
	for _, seq := range snaps[1:] {
		p := snapPath(dir, seq)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if rstats.InvalidSnapshots != 2 {
		t.Fatalf("invalid snapshots = %d, want 2: %+v", rstats.InvalidSnapshots, rstats)
	}
	if !rstats.SnapshotUsed || rstats.SnapshotSeq != snaps[0] {
		t.Fatalf("recovery shape = %+v, want fallback to snapshot %d", rstats, snaps[0])
	}
	if rstats.SegmentsReplayed < 3 {
		t.Fatalf("replayed %d segments, want at least the three tails: %+v", rstats.SegmentsReplayed, rstats)
	}
	if rstats.Entries != 70 {
		t.Fatalf("recovered %d entries, want 70", rstats.Entries)
	}
	for i := 0; i < 70; i++ {
		wantHit(t, c2, float64(i), fmt.Sprintf("v%d", i))
	}
}

func TestCrashBeforeCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < 30; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	id7 := put(t, c, 7.5, "doomed")

	// Preserve the pre-snapshot segments, snapshot (which compacts
	// them), then put them back: the on-disk picture of a crash between
	// snapshot publication and compaction finishing.
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[uint64][]byte{}
	for _, seq := range segs {
		b, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		saved[seq] = b
	}
	// The doomed entry dies BEFORE the snapshot, so its put lives only
	// in the old segments; if recovery replayed them, it would resurrect.
	if _, err := c.InvalidateRadius("f", "scalar", vec.Vector{7.5}, 0.01); err != nil {
		t.Fatal(err)
	}
	_ = id7
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}
	for seq, b := range saved {
		if err := os.WriteFile(segPath(dir, seq), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if !rstats.SnapshotUsed {
		t.Fatalf("snapshot unused: %+v", rstats)
	}
	if rstats.Entries != 30 {
		t.Fatalf("recovered %d entries, want 30", rstats.Entries)
	}
	wantMiss(t, c2, 7.5) // stale segment must not resurrect the invalidated entry

	// The next snapshot cycle retires the stale files for good.
	if _, err := openTestSnapshot(t, dir, c2); err != nil {
		t.Fatal(err)
	}
}

// openTestSnapshot runs one snapshot+compaction cycle on a fresh log
// handle and verifies no stale segment survives it.
func openTestSnapshot(t *testing.T, dir string, c *core.Cache) (*Log, error) {
	t.Helper()
	l := openTest(t, dir)
	if _, err := l.Snapshot(c); err != nil {
		return nil, err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range segs {
		if len(snaps) > 0 && seq < snaps[len(snaps)-1] {
			t.Errorf("stale segment %d survived compaction", seq)
		}
	}
	return l, l.Close()
}

func TestCrashEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	buildDir(t, dir, 10)

	// Kill point: between segment creation and its magic reaching disk
	// (Open writes the magic through a buffer). Model it as a
	// zero-length newest segment.
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	empty := segPath(dir, segs[len(segs)-1]+1)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if rstats.Entries != 10 {
		t.Fatalf("recovered %d entries, want 10", rstats.Entries)
	}
	if !rstats.TornTail {
		t.Fatalf("empty trailing segment not flagged as torn: %+v", rstats)
	}
}

// TestAtomicWriteFileFsyncFailure injects fsync failures and asserts the
// publish contract: on any failure the target path is untouched and no
// temp file leaks.
func TestAtomicWriteFileFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.bin")
	if err := atomicWriteFile(target, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected fsync failure")
	defer func() {
		syncFile = func(f *os.File) error { return f.Sync() }
		syncDir = func(f *os.File) error { return f.Sync() }
	}()

	syncFile = func(*os.File) error { return boom }
	if err := atomicWriteFile(target, []byte("v2"), 0o644); !errors.Is(err, boom) {
		t.Fatalf("file-fsync failure not surfaced: %v", err)
	}
	if got, _ := os.ReadFile(target); string(got) != "v1" {
		t.Fatalf("target clobbered by failed publish: %q", got)
	}
	assertNoTempFiles(t, dir)

	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir = func(*os.File) error { return boom }
	if err := atomicWriteFile(target, []byte("v3"), 0o644); !errors.Is(err, boom) {
		t.Fatalf("dir-fsync failure not surfaced: %v", err)
	}
	assertNoTempFiles(t, dir)

	syncDir = func(f *os.File) error { return f.Sync() }
	if err := atomicWriteFile(target, []byte("v4"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(target); string(got) != "v4" {
		t.Fatalf("target = %q after recovery, want v4", got)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

// TestLogSurvivesAppendFsyncFailure: a failing disk degrades durability,
// never serving — appends keep being accepted and counted as errors.
func TestLogSurvivesAppendFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir) // FsyncAlways: every append syncs
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)

	boom := errors.New("injected fsync failure")
	syncFile = func(*os.File) error { return boom }
	defer func() { syncFile = func(f *os.File) error { return f.Sync() } }()

	for i := 0; i < 5; i++ {
		put(t, c, float64(i), i) // must not panic or block
	}
	if s := l.Stats(); s.AppendErrors == 0 {
		t.Error("append errors not counted under failing fsync")
	}
	// The cache itself is unaffected.
	wantHit(t, c, 3, 3)
}
