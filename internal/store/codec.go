// Package store is the cache's durability layer: an append-only,
// CRC-checked segment log of registrations, admissions, and removals,
// periodic snapshots of the full durable state (entries plus per-series
// counters and tuner state), crash recovery that merges the newest
// valid snapshot with the log tail, and background compaction that
// retires segments a snapshot has superseded. It implements core.Store
// and is wired into the daemon by cmd/potluckd -data-dir; see DESIGN.md
// §"Durability and recovery" for the file formats and the replay
// contract.
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/vec"
)

// Record framing (segments and snapshots share it):
//
//	u32 length | u32 CRC-32 (IEEE) of payload | payload
//
// both fixed fields little-endian. The payload's first byte is the
// record type. A record whose length field is implausible, whose
// payload is short, or whose CRC mismatches is a torn tail: replay
// stops there (see recovery.go).
const (
	recRegister = byte(1) // one RegisterFunction call
	recPut      = byte(2) // one admitted entry
	recDelete   = byte(3) // one pre-deadline removal (evict/invalidate)

	snapMeta  = byte(16) // snapshot header: functions, tuners, counters
	snapEntry = byte(17) // one snapshot entry (same body as recPut)
	snapEnd   = byte(18) // snapshot footer: total entry count
)

// maxRecord bounds a single record, protecting replay from a corrupt
// length prefix. It must exceed the service layer's largest value (8
// MiB frames) with room for keys and headers.
const maxRecord = 64 << 20

// Value type tags. The set mirrors core's serializable values: the
// concrete Go type round-trips exactly, so a restored cache compares
// equal under reflect.DeepEqual-based tuner equality.
const (
	valNil = byte(iota)
	valBool
	valInt
	valInt8
	valInt16
	valInt32
	valInt64
	valUint
	valUint8
	valUint16
	valUint32
	valUint64
	valFloat32
	valFloat64
	valString
	valBytes
	valVector
)

// appendValue encodes v, reporting false (buffer unchanged) for value
// types the codec cannot persist.
func appendValue(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(b, valNil), true
	case bool:
		if x {
			return append(b, valBool, 1), true
		}
		return append(b, valBool, 0), true
	case int:
		return binary.AppendVarint(append(b, valInt), int64(x)), true
	case int8:
		return binary.AppendVarint(append(b, valInt8), int64(x)), true
	case int16:
		return binary.AppendVarint(append(b, valInt16), int64(x)), true
	case int32:
		return binary.AppendVarint(append(b, valInt32), int64(x)), true
	case int64:
		return binary.AppendVarint(append(b, valInt64), x), true
	case uint:
		return binary.AppendUvarint(append(b, valUint), uint64(x)), true
	case uint8:
		return binary.AppendUvarint(append(b, valUint8), uint64(x)), true
	case uint16:
		return binary.AppendUvarint(append(b, valUint16), uint64(x)), true
	case uint32:
		return binary.AppendUvarint(append(b, valUint32), uint64(x)), true
	case uint64:
		return binary.AppendUvarint(append(b, valUint64), x), true
	case float32:
		return binary.LittleEndian.AppendUint32(append(b, valFloat32), math.Float32bits(x)), true
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, valFloat64), math.Float64bits(x)), true
	case string:
		return appendString(append(b, valString), x), true
	case []byte:
		return appendBytes(append(b, valBytes), x), true
	case vec.Vector:
		return appendVector(append(b, valVector), x), true
	}
	return b, false
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendVector(b []byte, v vec.Vector) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// reader decodes a record payload sequentially. Every method keeps an
// error sticky, so decode paths check once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("store: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and fails unless the rest of the payload
// can hold that many elements of at least minBytes each, so a corrupt
// count never sizes an allocation past a small multiple of the input.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)-r.off)/uint64(minBytes) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) float64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("bytes")
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:])
	r.off += int(n)
	return p
}

func (r *reader) vector() vec.Vector {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off)/8 {
		r.fail("vector")
		return nil
	}
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = r.float64()
	}
	return v
}

func (r *reader) value() any {
	switch tag := r.byte(); tag {
	case valNil:
		return nil
	case valBool:
		return r.byte() != 0
	case valInt:
		return int(r.varint())
	case valInt8:
		return int8(r.varint())
	case valInt16:
		return int16(r.varint())
	case valInt32:
		return int32(r.varint())
	case valInt64:
		return r.varint()
	case valUint:
		return uint(r.uvarint())
	case valUint8:
		return uint8(r.uvarint())
	case valUint16:
		return uint16(r.uvarint())
	case valUint32:
		return uint32(r.uvarint())
	case valUint64:
		return r.uvarint()
	case valFloat32:
		return math.Float32frombits(r.u32())
	case valFloat64:
		return r.float64()
	case valString:
		return r.string()
	case valBytes:
		return r.bytes()
	case valVector:
		return r.vector()
	default:
		r.fail("value tag")
		return nil
	}
}

// appendRegister encodes a recRegister payload.
func appendRegister(b []byte, fn string, kts []core.StoreKeyType) []byte {
	b = append(b, recRegister)
	b = appendString(b, fn)
	b = binary.AppendUvarint(b, uint64(len(kts)))
	for _, kt := range kts {
		b = appendKeyType(b, kt)
	}
	return b
}

func appendKeyType(b []byte, kt core.StoreKeyType) []byte {
	b = appendString(b, kt.Name)
	b = appendString(b, kt.Metric)
	b = appendString(b, kt.Index)
	return binary.AppendUvarint(b, uint64(kt.Dim))
}

// minKeyTypeBytes is the smallest encoded StoreKeyType: three empty
// strings and a one-byte Dim.
const minKeyTypeBytes = 4

func (r *reader) keyType() core.StoreKeyType {
	return core.StoreKeyType{
		Name:   r.string(),
		Metric: r.string(),
		Index:  r.string(),
		Dim:    int(r.uvarint()),
	}
}

func (r *reader) register() (string, []core.StoreKeyType) {
	fn := r.string()
	n := r.count("register key types", minKeyTypeBytes)
	kts := make([]core.StoreKeyType, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		kts = append(kts, r.keyType())
	}
	return fn, kts
}

// appendEntryBody encodes a StoreEntry (shared by recPut and snapEntry
// payloads, after the type byte). Reports false for values the codec
// cannot persist.
func appendEntryBody(b []byte, rec *core.StoreEntry) ([]byte, bool) {
	start := len(b)
	b = binary.AppendUvarint(b, rec.ID)
	b = appendString(b, rec.Function)
	b = appendString(b, rec.App)
	b = binary.AppendVarint(b, rec.CostNanos)
	b = binary.AppendUvarint(b, uint64(rec.Size))
	b = binary.AppendVarint(b, rec.AccessCount)
	b = binary.AppendVarint(b, rec.InsertedAtNanos)
	b = binary.AppendVarint(b, rec.LastAccessNanos)
	b = binary.AppendVarint(b, rec.ExpiresAtNanos)
	b = binary.AppendUvarint(b, uint64(len(rec.Keys)))
	for _, k := range rec.Keys {
		b = appendString(b, k.KeyType)
		b = appendVector(b, k.Key)
	}
	b, ok := appendValue(b, rec.Value)
	if !ok {
		return b[:start], false
	}
	return b, true
}

func (r *reader) entryBody() core.StoreEntry {
	rec := core.StoreEntry{
		ID:              r.uvarint(),
		Function:        r.string(),
		App:             r.string(),
		CostNanos:       r.varint(),
		Size:            int(r.uvarint()),
		AccessCount:     r.varint(),
		InsertedAtNanos: r.varint(),
		LastAccessNanos: r.varint(),
		ExpiresAtNanos:  r.varint(),
	}
	n := r.count("entry keys", 2) // a key is at least two length prefixes
	rec.Keys = make([]core.StoreKey, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		rec.Keys = append(rec.Keys, core.StoreKey{KeyType: r.string(), Key: r.vector()})
	}
	rec.Value = r.value()
	return rec
}

// appendTunerState encodes a core.TunerState.
func appendTunerState(b []byte, t core.TunerState) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Threshold))
	if t.Active {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(t.Puts))
	b = binary.AppendVarint(b, int64(t.Tightenings))
	b = binary.AppendVarint(b, int64(t.Loosenings))
	b = appendVector(b, t.WarmupSame)
	b = appendVector(b, t.WarmupDiff)
	return b
}

func (r *reader) tunerState() core.TunerState {
	return core.TunerState{
		Threshold:   r.float64(),
		Active:      r.byte() != 0,
		Puts:        int(r.varint()),
		Tightenings: int(r.varint()),
		Loosenings:  int(r.varint()),
		WarmupSame:  r.vector(),
		WarmupDiff:  r.vector(),
	}
}
