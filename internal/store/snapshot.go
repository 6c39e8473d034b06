package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/core"
)

// Snapshot file format:
//
//	"PLKSNP01"
//	framed snapMeta   — capture time, ID watermark, skip count, and every
//	                    function table (specs, tuner state, counters)
//	framed snapEntry… — one per live entry, same body as recPut
//	framed snapEnd    — entry count, doubling as a completeness check
//
// A snapshot missing its footer, with a count mismatch, or with any
// torn record is invalid as a whole; recovery falls back to the next
// older one. Publication goes through atomicWriteFile, so a crash
// mid-write leaves only an ignored .tmp.

// appendFramed frames one payload: length, CRC, payload.
func appendFramed(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// nextRecord splits one framed record off b. ok is false at a clean end
// of input or a torn tail; torn distinguishes the two.
func nextRecord(b []byte) (payload, rest []byte, ok, torn bool) {
	if len(b) == 0 {
		return nil, nil, false, false
	}
	if len(b) < 8 {
		return nil, nil, false, true
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxRecord || uint64(n) > uint64(len(b)-8) {
		return nil, nil, false, true
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, false, true
	}
	return payload, b[8+n:], true, false
}

// writeSnapshot encodes state and publishes it atomically at path.
func writeSnapshot(path string, state *core.DurableState) error {
	var scratch []byte
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapMagic...)

	scratch = appendSnapMeta(scratch[:0], state)
	buf = appendFramed(buf, scratch)

	written := 0
	for i := range state.Entries {
		var ok bool
		scratch, ok = appendEntryBody(append(scratch[:0], snapEntry), &state.Entries[i])
		if !ok {
			continue // caller counts these via state.Skipped
		}
		buf = appendFramed(buf, scratch)
		written++
	}

	scratch = binary.AppendUvarint(append(scratch[:0], snapEnd), uint64(written))
	buf = appendFramed(buf, scratch)

	return atomicWriteFile(path, buf, 0o644)
}

func appendSnapMeta(b []byte, state *core.DurableState) []byte {
	b = append(b, snapMeta)
	b = binary.AppendVarint(b, state.CapturedAtNanos)
	b = binary.AppendUvarint(b, state.MaxID)
	b = binary.AppendUvarint(b, uint64(state.Skipped))
	b = binary.AppendUvarint(b, uint64(len(state.Functions)))
	for _, df := range state.Functions {
		b = appendString(b, df.Name)
		b = binary.AppendVarint(b, df.Puts)
		b = binary.AppendUvarint(b, uint64(len(df.KeyTypes)))
		for _, kt := range df.KeyTypes {
			b = appendKeyType(b, kt.StoreKeyType)
			b = appendTunerState(b, kt.Tuner)
			b = binary.AppendVarint(b, kt.Hits)
			b = binary.AppendVarint(b, kt.Misses)
			b = binary.AppendVarint(b, kt.Dropouts)
		}
	}
	return b
}

func (r *reader) snapMetaBody(state *core.DurableState) {
	state.CapturedAtNanos = r.varint()
	state.MaxID = r.uvarint()
	state.Skipped = int(r.uvarint())
	nf := r.count("snapshot functions", 3) // name, puts, key-type count
	state.Functions = make([]core.DurableFunction, 0, nf)
	for i := 0; i < nf && r.err == nil; i++ {
		df := core.DurableFunction{Name: r.string(), Puts: r.varint()}
		// A key type's fixed-width tuner threshold alone is 8 bytes.
		nk := r.count("snapshot key types", minKeyTypeBytes+8)
		df.KeyTypes = make([]core.DurableKeyType, 0, nk)
		for j := 0; j < nk && r.err == nil; j++ {
			df.KeyTypes = append(df.KeyTypes, core.DurableKeyType{
				StoreKeyType: r.keyType(),
				Tuner:        r.tunerState(),
				Hits:         r.varint(),
				Misses:       r.varint(),
				Dropouts:     r.varint(),
			})
		}
		state.Functions = append(state.Functions, df)
	}
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (*core.DurableState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	state, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return state, nil
}

// decodeSnapshot validates and decodes one snapshot image. Any defect —
// bad magic, torn record, missing footer, count mismatch — invalidates
// the whole image.
func decodeSnapshot(data []byte) (*core.DurableState, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("bad snapshot magic")
	}
	data = data[len(snapMagic):]

	state := &core.DurableState{}
	sawMeta, sawEnd := false, false
	declared := uint64(0)
	for {
		payload, rest, ok, torn := nextRecord(data)
		if torn {
			return nil, errors.New("torn snapshot record")
		}
		if !ok {
			break
		}
		data = rest
		if sawEnd {
			return nil, errors.New("data after snapshot footer")
		}
		r := &reader{b: payload}
		switch typ := r.byte(); typ {
		case snapMeta:
			if sawMeta {
				return nil, errors.New("duplicate snapshot header")
			}
			sawMeta = true
			r.snapMetaBody(state)
		case snapEntry:
			if !sawMeta {
				return nil, errors.New("entry before snapshot header")
			}
			state.Entries = append(state.Entries, r.entryBody())
		case snapEnd:
			sawEnd = true
			declared = r.uvarint()
		default:
			return nil, fmt.Errorf("unknown snapshot record type %d", typ)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if !sawMeta || !sawEnd {
		return nil, fmt.Errorf("incomplete snapshot (missing %s)",
			map[bool]string{true: "footer", false: "header"}[sawMeta])
	}
	if declared != uint64(len(state.Entries)) {
		return nil, fmt.Errorf("snapshot footer declares %d entries, found %d",
			declared, len(state.Entries))
	}
	return state, nil
}

// SaveFile captures c's durable state and publishes it at path as one
// snapshot file — the single-file persistence for in-process library
// users who do not run a Log. The write is crash-safe (atomicWriteFile):
// after a crash path holds either the previous complete snapshot or the
// new one. Entries whose value type cannot be persisted are left out.
func SaveFile(c *core.Cache, path string) error {
	return writeSnapshot(path, c.CaptureState())
}

// LoadFile restores the snapshot at path into c through Cache.Restore:
// entries keep their original IDs and absolute deadlines, so one whose
// deadline passed while the file sat on disk is dropped (counted
// Expired), and loading the same file twice — or over a cache already
// recovered from a Log holding the same entries — admits nothing twice
// (counted Skipped). A file that fails to decode leaves c untouched.
func LoadFile(c *core.Cache, path string) (core.RestoreStats, error) {
	state, err := readSnapshot(path)
	if err != nil {
		return core.RestoreStats{}, err
	}
	return c.Restore(state)
}
