package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// fuzzSnapshotSeed is a valid snapshot image of two functions, one with
// two key types, holding values of several types.
func fuzzSnapshotSeed(f *testing.F) []byte {
	c, _ := newCache(nil, time.Unix(0, 0))
	if err := c.RegisterFunction("f", core.KeyTypeSpec{Name: "scalar"}); err != nil {
		f.Fatal(err)
	}
	err := c.RegisterFunction("g",
		core.KeyTypeSpec{Name: "a", Index: "linear"},
		core.KeyTypeSpec{Name: "b", Index: "lsh", Dim: 2, Metric: vec.ManhattanMetric{}})
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []any{"text", int64(7), []byte{1, 2, 3}, vec.Vector{0.5}, nil, true} {
		if _, err := c.Put("f", core.PutRequest{
			Keys: map[string]vec.Vector{"scalar": {float64(i)}}, Value: v, Cost: time.Millisecond, TTL: time.Hour,
		}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := c.Put("g", core.PutRequest{
		Keys: map[string]vec.Vector{"a": {1, 2, 3}, "b": {4, 5}}, Value: "multi", TTL: time.Hour, App: "app",
	}); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := SaveFile(c, path); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return img
}

// FuzzDecodeSnapshot feeds decodeSnapshot — the decoder LoadFile puts in
// front of library callers — arbitrary images. It must return an error
// or a state, never panic, and never allocate more than a small multiple
// of the input; a state it accepts must then go through Cache.Restore on
// a fresh cache without panicking, whatever index kinds, dimensions and
// keys it names.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := fuzzSnapshotSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	// A well-formed frame around a damaged payload: the record decoders
	// see the corruption, not nextRecord's CRC check.
	forged := append([]byte(nil), valid...)
	for i := len(snapMagic) + 8 + 2; i < len(forged)/2; i += 5 {
		forged[i] ^= 0xA5
	}
	f.Add(reseal(forged))
	// One function whose key-type count is as large as its payload: the
	// zeros decode as empty key types until they run out, so only the
	// count check stands between this and a 176-byte struct per byte.
	bomb := binary.AppendUvarint([]byte{snapMeta, 0, 0, 0, 1, 0, 0}, 4000)
	f.Add(appendFramed([]byte(snapMagic), append(bomb, make([]byte, 4000)...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The mutator almost never lands on a valid CRC by itself, so
		// each input is also decoded with its frames resealed.
		for _, img := range [][]byte{data, reseal(data)} {
			decodeAndRestore(t, img)
		}
	})
}

// reseal returns a copy of img with the CRC of every frame whose length
// field fits recomputed over whatever payload is there now.
func reseal(img []byte) []byte {
	img = append([]byte(nil), img...)
	for off := len(snapMagic); off+8 <= len(img); {
		n := int(binary.LittleEndian.Uint32(img[off:]))
		if n == 0 || n > len(img)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(img[off+4:], crc32.ChecksumIEEE(img[off+8:off+8+n]))
		off += 8 + n
	}
	return img
}

func decodeAndRestore(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	state, err := decodeSnapshot(data)
	runtime.ReadMemStats(&after)
	// 32× covers the densest legal input — an empty string or vector is
	// one byte on disk and a 16- or 24-byte header in memory — plus slack
	// for whatever else the test process allocates meanwhile.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+64<<10); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	if err != nil {
		return
	}
	// Any declared Dim restores: no index allocates from it.
	c, _ := newCache(nil, time.Unix(0, 0))
	st, err := c.Restore(state)
	if err == nil && st.Entries > len(state.Entries) {
		t.Fatalf("restored %d of %d entries", st.Entries, len(state.Entries))
	}
}
