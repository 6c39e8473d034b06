// Package service exposes the Potluck cache as a background service, the
// role Android Binder/AIDL plays in the paper's implementation (§4).
// Applications connect over a Unix domain socket (or TCP loopback) and
// exchange length-prefixed binary messages: Register, Lookup, Put, and
// Stats requests, mirroring the AppListener/CacheManager split of
// Figure 4. Values cross the wire as opaque byte slices; applications
// serialize their own results.
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/vec"
)

// MsgType identifies a wire message.
type MsgType uint8

// Wire message types.
const (
	MsgRegister MsgType = iota + 1
	MsgLookup
	MsgPut
	MsgStats
	MsgReplyOK
	MsgReplyError
	MsgReplyLookup
	MsgReplyPut
	MsgReplyStats
	// Batch operations (added after the single-op protocol shipped).
	// Batch frames are ordinary Request/Reply envelopes whose Value
	// field carries a length-prefixed sub-operation array, so an
	// old-style peer parses the frame cleanly and replies MsgReplyError
	// ("unknown request type") instead of tearing the connection — the
	// same mixed-version discipline as the trailing trace-ID field.
	MsgMultiLookup
	MsgMultiPut
	MsgReplyMultiLookup
	MsgReplyMultiPut
	// Peer handshake (added with the cluster mesh). A MsgPeerInfo frame
	// is an ordinary Request envelope whose Value carries an encoded
	// PeerInfo, so an old-style peer parses the envelope cleanly and
	// replies MsgReplyError ("unknown request type") on a healthy
	// connection — the mesh reads that as "legacy peer" and keeps using
	// the plain lookup/put messages it does understand.
	MsgPeerInfo
	MsgReplyPeerInfo
)

// MaxMessageSize bounds a single wire message (16 MiB), protecting the
// server from malformed or hostile length prefixes.
const MaxMessageSize = 16 << 20

// MeshProtocolVersion is the peer-routing protocol generation this build
// speaks, exchanged in the MsgPeerInfo handshake. Peers with a different
// version still interoperate over the envelope rules (trailing fields
// are skipped, unknown message types get in-band errors); the version is
// diagnostic, not a gate.
const MeshProtocolVersion = 1

// PeerAppPrefix marks requests issued by a mesh peer rather than an
// application. The server never fans a peer-originated lookup back out
// to the mesh (the sender already routed it to an owner) and never
// re-replicates a peer-originated put — both would amplify or loop.
// The prefix rides in the envelope's existing App field, so the marking
// is understood by construction on every protocol generation.
const PeerAppPrefix = "mesh:"

// IsPeerApp reports whether an App name marks a mesh-peer request.
func IsPeerApp(app string) bool {
	return len(app) >= len(PeerAppPrefix) && app[:len(PeerAppPrefix)] == PeerAppPrefix
}

// PeerInfo is the payload of the MsgPeerInfo handshake: who a node is
// and what it speaks. Sent by a mesh client when it first reaches a
// peer; the peer answers with its own. NodeID is the rendezvous-hash
// identity — a mismatch against the dialed peer's configured ID means
// the membership lists disagree and is surfaced as a warning.
type PeerInfo struct {
	Version uint32
	NodeID  string
	// Replicas advertises the sender's replication factor K, for
	// diagnosing asymmetric mesh configurations.
	Replicas uint32
}

// EncodePeerInfo serializes a handshake payload (the Value of a
// MsgPeerInfo/MsgReplyPeerInfo envelope).
func EncodePeerInfo(p *PeerInfo) []byte {
	var e encoder
	e.u32(p.Version)
	e.str(p.NodeID)
	e.u32(p.Replicas)
	return e.buf
}

// DecodePeerInfo parses a handshake payload. Trailing bytes beyond the
// known fields are ignored, so future encoders can append fields without
// breaking this decoder — the same rule as the Request/Reply envelopes.
func DecodePeerInfo(buf []byte) (*PeerInfo, error) {
	d := decoder{buf: buf}
	p := &PeerInfo{Version: d.u32()}
	p.NodeID = d.str()
	p.Replicas = d.u32()
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// ErrMessageTooLarge is returned when a frame exceeds MaxMessageSize.
var ErrMessageTooLarge = errors.New("service: message exceeds size limit")

// KeyTypeDef describes a key type in a Register message. Extraction
// functions cannot cross the process boundary, so remote key types
// always receive explicit keys in Put requests.
type KeyTypeDef struct {
	Name   string
	Metric string // vec.MetricByName identifier
	Index  string // index.Kind
	Dim    uint32
}

// Request is the union of client→server messages (§4.2: "a Request
// message ... consists of the request type, function name, key type,
// lookup key, and computation results to store").
type Request struct {
	Type     MsgType
	App      string
	Function string
	KeyType  string
	Key      vec.Vector
	Keys     map[string]vec.Vector
	KeyTypes []KeyTypeDef
	Value    []byte
	Cost     int64 // nanoseconds
	Size     int64
	TTL      int64 // nanoseconds
	// Trace is the span trace ID this request runs under (0 = untraced).
	// It rides as an OPTIONAL TRAILING field: old decoders stop before it
	// and ignore the extra bytes, new decoders read it only when present,
	// so mixed-version peers interoperate (the old peer simply sees an
	// untraced request).
	Trace uint64
}

// Reply is the union of server→client messages.
type Reply struct {
	Type      MsgType
	Error     string
	Hit       bool
	Dropout   bool
	Value     []byte
	Distance  float64
	Threshold float64
	MissedAt  int64 // nanoseconds since epoch, for cost accounting
	ID        uint64
	Stats     StatsPayload
	// Trace echoes the trace ID the server recorded the operation under
	// (the request's ID, or one the server minted). Optional trailing
	// field with the same mixed-version contract as Request.Trace.
	Trace uint64
}

// StatsPayload mirrors core.Stats over the wire.
type StatsPayload struct {
	Hits, Misses, Dropouts, Puts  int64
	Evictions, Expirations        int64
	Entries, Bytes, SavedComputeN int64
}

// --- encoding primitives ---

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) vector(v vec.Vector) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
	// names, when set, interns every decoded string (a request envelope's
	// strings are all names: app, function, key types).
	names nameTable
}

// nameTable interns the few names a connection repeats on every request,
// so decoding them allocates once per connection instead of once per
// request. It admits only short names and stops growing at maxNames: a
// hostile peer cannot inflate it.
type nameTable map[string]string

const (
	maxNames   = 64
	maxNameLen = 128
)

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	if len(t) < maxNames && len(s) <= maxNameLen {
		t[s] = s
	}
	return s
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("service: truncated message")
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// remaining reports how many undecoded bytes are left. d.off never
// exceeds len(d.buf), so the result is non-negative.
func (d *decoder) remaining() int { return len(d.buf) - d.off }

// Length fields are compared against the remaining buffer in uint64:
// a hostile length near MaxUint32 must not wrap when widened to int
// (int is 32 bits on 32-bit platforms, where int(n) can go negative
// and d.off+n can overflow past a bounds check).

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(d.remaining()) {
		d.fail()
		return ""
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if d.names != nil {
		return d.names.intern(b)
	}
	return string(b)
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(d.remaining()) {
		d.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return b
}

func (d *decoder) vector() vec.Vector { return d.vectorInto(nil) }

// vectorInto decodes a vector into dst's backing array when it is large
// enough, for callers that own dst and keep nothing decoded into it.
func (d *decoder) vectorInto(dst vec.Vector) vec.Vector {
	n := d.u32()
	if d.err != nil || uint64(n)*8 > uint64(d.remaining()) {
		d.fail()
		return nil
	}
	v := dst[:0]
	if dst == nil || cap(dst) < int(n) {
		v = make(vec.Vector, n)
	}
	v = v[:n]
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// sub returns the next length-prefixed sub-frame as a slice of the
// underlying buffer (no copy). Past the buffer's end it returns nil, on
// which a sub-frame decoder's first read fails.
func (d *decoder) sub() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(d.remaining()) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// connBufSize is the size of a connection's read buffer and the most a
// write buffer keeps between flushes, on both ends of the socket: a burst
// of 32 small frames fits several times over, and a thousand idle
// connections hold 32 MiB.
const connBufSize = 16 << 10

// trimBuf empties a write buffer for reuse, releasing one that a large
// frame grew beyond connBufSize.
func trimBuf(b []byte) []byte {
	if cap(b) > connBufSize {
		return nil
	}
	return b[:0]
}

// openFrame reserves the length prefix of a frame appended to dst;
// closeFrame fills it in once the payload is encoded. A payload over
// MaxMessageSize is taken back off: dst returns as it was, with
// ErrMessageTooLarge.
func openFrame(dst []byte) encoder { return encoder{buf: append(dst, 0, 0, 0, 0)} }

func closeFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 4
	if n > MaxMessageSize {
		return buf[:start], fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// AppendRequest appends a request to dst as one frame, length prefix
// included, encoding straight into dst's spare capacity.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	e := openFrame(dst)
	e.request(r)
	return closeFrame(e.buf, len(dst))
}

// EncodeRequest serializes a request payload (without the frame header).
func EncodeRequest(r *Request) []byte {
	e := encoder{buf: make([]byte, 0, 96+len(r.App)+len(r.Function)+len(r.KeyType)+8*len(r.Key)+len(r.Value))}
	e.request(r)
	return e.buf
}

func (e *encoder) request(r *Request) {
	e.u8(uint8(r.Type))
	e.str(r.App)
	e.str(r.Function)
	e.str(r.KeyType)
	e.vector(r.Key)
	e.u32(uint32(len(r.Keys)))
	for _, k := range sortedKeys(r.Keys) {
		e.str(k.name)
		e.vector(k.key)
	}
	e.u32(uint32(len(r.KeyTypes)))
	for _, kt := range r.KeyTypes {
		e.str(kt.Name)
		e.str(kt.Metric)
		e.str(kt.Index)
		e.u32(kt.Dim)
	}
	e.bytes(r.Value)
	e.i64(r.Cost)
	e.i64(r.Size)
	e.i64(r.TTL)
	e.u64(r.Trace)
}

type namedKey struct {
	name string
	key  vec.Vector
}

// sortedKeys yields deterministic wire encoding for map fields.
func sortedKeys(m map[string]vec.Vector) []namedKey {
	out := make([]namedKey, 0, len(m))
	for name, k := range m {
		out = append(out, namedKey{name, k})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DecodeRequest parses a request payload.
func DecodeRequest(buf []byte) (*Request, error) {
	r := new(Request)
	if err := decodeRequest(r, buf, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeRequest parses a request payload into r, overwriting every field.
// r.Key is decoded into the backing array r already holds. With names,
// the server's decode of every request of a connection into one Request,
// strings are interned and a batch frame's Value is a slice of buf: the
// server decodes its sub-operations before it reads the next frame, and
// keeps neither r nor its Key past the reply. Otherwise nothing of buf is
// kept.
func decodeRequest(r *Request, buf []byte, names nameTable) error {
	d := decoder{buf: buf, names: names}
	*r = Request{Type: MsgType(d.u8()), Key: r.Key}
	r.App = d.str()
	r.Function = d.str()
	r.KeyType = d.str()
	r.Key = d.vectorInto(r.Key)
	if n := d.u32(); n > 0 {
		// Each entry takes ≥ 8 bytes; cheap sanity bound, compared in
		// uint64 so a hostile count cannot wrap on 32-bit platforms.
		if uint64(n) > uint64(len(buf)) {
			return errors.New("service: corrupt key map length")
		}
		r.Keys = make(map[string]vec.Vector, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			name := d.str()
			r.Keys[name] = d.vector()
		}
	}
	if n := d.u32(); n > 0 {
		if uint64(n) > uint64(len(buf)) {
			return errors.New("service: corrupt key type list length")
		}
		r.KeyTypes = make([]KeyTypeDef, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			r.KeyTypes = append(r.KeyTypes, KeyTypeDef{
				Name:   d.str(),
				Metric: d.str(),
				Index:  d.str(),
				Dim:    d.u32(),
			})
		}
	}
	if names != nil && (r.Type == MsgMultiLookup || r.Type == MsgMultiPut) {
		r.Value = d.sub()
	} else {
		r.Value = d.bytes()
	}
	r.Cost = d.i64()
	r.Size = d.i64()
	r.TTL = d.i64()
	// Optional trailing trace ID: absent in frames from older encoders
	// (decoders have never rejected leftover bytes, so the asymmetric
	// read is safe in both directions).
	if d.err == nil && d.off+8 <= len(d.buf) {
		r.Trace = d.u64()
	}
	return d.err
}

// AppendReply appends a reply to dst as one frame, length prefix included.
func AppendReply(dst []byte, r *Reply) ([]byte, error) {
	e := openFrame(dst)
	e.reply(r)
	return closeFrame(e.buf, len(dst))
}

// EncodeReply serializes a reply payload.
func EncodeReply(r *Reply) []byte {
	e := encoder{buf: make([]byte, 0, 128+len(r.Error)+len(r.Value))}
	e.reply(r)
	return e.buf
}

func (e *encoder) reply(r *Reply) {
	e.u8(uint8(r.Type))
	e.str(r.Error)
	e.bool(r.Hit)
	e.bool(r.Dropout)
	e.bytes(r.Value)
	e.f64(r.Distance)
	e.f64(r.Threshold)
	e.i64(r.MissedAt)
	e.u64(r.ID)
	s := &r.Stats
	for _, v := range [...]int64{s.Hits, s.Misses, s.Dropouts, s.Puts,
		s.Evictions, s.Expirations, s.Entries, s.Bytes, s.SavedComputeN} {
		e.i64(v)
	}
	e.u64(r.Trace)
}

// DecodeReply parses a reply payload.
func DecodeReply(buf []byte) (*Reply, error) {
	r := new(Reply)
	if err := decodeReply(r, buf); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeReply parses a reply payload into r, overwriting every field and
// keeping nothing of buf.
func decodeReply(r *Reply, buf []byte) error {
	d := decoder{buf: buf}
	*r = Reply{Type: MsgType(d.u8())}
	r.Error = d.str()
	r.Hit = d.bool()
	r.Dropout = d.bool()
	r.Value = d.bytes()
	r.Distance = d.f64()
	r.Threshold = d.f64()
	r.MissedAt = d.i64()
	r.ID = d.u64()
	s := &r.Stats
	for _, p := range [...]*int64{&s.Hits, &s.Misses, &s.Dropouts, &s.Puts,
		&s.Evictions, &s.Expirations, &s.Entries, &s.Bytes, &s.SavedComputeN} {
		*p = d.i64()
	}
	// Optional trailing trace ID (see decodeRequest).
	if d.err == nil && d.off+8 <= len(d.buf) {
		r.Trace = d.u64()
	}
	return d.err
}

// --- batch sub-operation codecs ---
//
// A MsgMultiLookup/MsgMultiPut frame is a normal Request envelope whose
// Value holds `u32 count` followed by count sub-operations, each
// length-prefixed (`u32 len | payload`). The per-sub length prefix lets
// future encoders append trailing fields to a sub-op without breaking
// older decoders (they decode the fields they know and skip the rest),
// mirroring the envelope-level trailing-field rule. Replies mirror the
// layout in the Reply envelope's Value.

// MaxBatch bounds the sub-operations in one batch frame, protecting the
// server's fan-out (and the reply frame size) from hostile counts.
const MaxBatch = 4096

// ErrBatchTooLarge is returned when a batch exceeds MaxBatch sub-ops.
var ErrBatchTooLarge = errors.New("service: batch exceeds sub-operation limit")

// LookupSub is one sub-operation of a MsgMultiLookup batch.
type LookupSub struct {
	Function string
	KeyType  string
	Key      vec.Vector
	// Trace is this sub-operation's span trace ID (0 = untraced). Each
	// sub-op carries its own ID so one batch frame yields one span per
	// lookup, not one blurred span per batch.
	Trace uint64
}

// LookupSubReply is the per-sub-operation outcome of a batch lookup.
// Error is set when this sub-op failed (unknown function, say) — a
// sub-op failure never fails its siblings.
type LookupSubReply struct {
	Error     string
	Hit       bool
	Dropout   bool
	Value     []byte
	Distance  float64
	Threshold float64
	MissedAt  int64 // nanoseconds since epoch
	Trace     uint64
}

// PutSub is one sub-operation of a MsgMultiPut batch.
type PutSub struct {
	Function string
	Keys     map[string]vec.Vector
	Value    []byte
	Cost     int64 // nanoseconds
	Size     int64
	TTL      int64 // nanoseconds
	Trace    uint64
}

// PutSubReply is the per-sub-operation outcome of a batch put.
type PutSubReply struct {
	Error string
	ID    uint64
	Trace uint64
}

// batchCount reads and validates the leading sub-op count of a batch
// payload.
func (d *decoder) batchCount() (int, error) {
	n := d.u32()
	if d.err != nil {
		return 0, d.err
	}
	if n > MaxBatch {
		return 0, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, n, MaxBatch)
	}
	// Every sub-op costs at least a 4-byte length prefix.
	if uint64(n)*4 > uint64(d.remaining()) {
		return 0, errors.New("service: corrupt batch count")
	}
	return int(n), nil
}

// openSub reserves the length prefix of a sub-operation appended to the
// batch payload; closeSub fills it in once the sub is encoded.
func (e *encoder) openSub() int {
	e.u32(0)
	return len(e.buf)
}
func (e *encoder) closeSub(at int) { binary.BigEndian.PutUint32(e.buf[at-4:], uint32(len(e.buf)-at)) }

// EncodeLookupSubs serializes a batch of lookup sub-operations (the
// Value payload of a MsgMultiLookup envelope).
func EncodeLookupSubs(subs []LookupSub) []byte {
	var e encoder
	e.u32(uint32(len(subs)))
	for _, s := range subs {
		at := e.openSub()
		e.str(s.Function)
		e.str(s.KeyType)
		e.vector(s.Key)
		e.u64(s.Trace)
		e.closeSub(at)
	}
	return e.buf
}

// DecodeLookupSubs parses a MsgMultiLookup Value payload.
func DecodeLookupSubs(buf []byte) ([]LookupSub, error) {
	return decodeLookupSubs(nil, buf, nil)
}

// decodeLookupSubs parses a MsgMultiLookup Value payload into dst's
// memory: the slice, and each sub's Key where its backing array is large
// enough. Names are interned in names when given. The caller owns dst and
// keeps none of the keys.
func decodeLookupSubs(dst []LookupSub, buf []byte, names nameTable) ([]LookupSub, error) {
	d := decoder{buf: buf}
	n, err := d.batchCount()
	if err != nil {
		return nil, err
	}
	subs := slices.Grow(dst[:0], n)[:n]
	for i := range subs {
		sd := decoder{buf: d.sub(), names: names}
		subs[i] = LookupSub{
			Function: sd.str(),
			KeyType:  sd.str(),
			Key:      sd.vectorInto(subs[i].Key),
			Trace:    sd.u64(),
		}
		if sd.err != nil {
			return nil, sd.err
		}
	}
	return subs, nil
}

// EncodeLookupSubReplies serializes per-sub lookup outcomes (the Value
// payload of a MsgReplyMultiLookup envelope).
func EncodeLookupSubReplies(subs []LookupSubReply) []byte {
	return appendLookupSubReplies(nil, subs)
}

// appendLookupSubReplies appends the encoding of EncodeLookupSubReplies
// to dst.
func appendLookupSubReplies(dst []byte, subs []LookupSubReply) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(subs)))
	for _, s := range subs {
		at := e.openSub()
		e.str(s.Error)
		e.bool(s.Hit)
		e.bool(s.Dropout)
		e.bytes(s.Value)
		e.f64(s.Distance)
		e.f64(s.Threshold)
		e.i64(s.MissedAt)
		e.u64(s.Trace)
		e.closeSub(at)
	}
	return e.buf
}

// DecodeLookupSubReplies parses a MsgReplyMultiLookup Value payload.
func DecodeLookupSubReplies(buf []byte) ([]LookupSubReply, error) {
	d := decoder{buf: buf}
	n, err := d.batchCount()
	if err != nil {
		return nil, err
	}
	subs := make([]LookupSubReply, 0, n)
	for i := 0; i < n; i++ {
		sd := decoder{buf: d.sub()}
		subs = append(subs, LookupSubReply{
			Error:     sd.str(),
			Hit:       sd.bool(),
			Dropout:   sd.bool(),
			Value:     sd.bytes(),
			Distance:  sd.f64(),
			Threshold: sd.f64(),
			MissedAt:  sd.i64(),
			Trace:     sd.u64(),
		})
		if sd.err != nil {
			return nil, sd.err
		}
	}
	return subs, nil
}

// EncodePutSubs serializes a batch of put sub-operations (the Value
// payload of a MsgMultiPut envelope).
func EncodePutSubs(subs []PutSub) []byte {
	var e encoder
	e.u32(uint32(len(subs)))
	for _, s := range subs {
		at := e.openSub()
		e.str(s.Function)
		e.u32(uint32(len(s.Keys)))
		for _, k := range sortedKeys(s.Keys) {
			e.str(k.name)
			e.vector(k.key)
		}
		e.bytes(s.Value)
		e.i64(s.Cost)
		e.i64(s.Size)
		e.i64(s.TTL)
		e.u64(s.Trace)
		e.closeSub(at)
	}
	return e.buf
}

// DecodePutSubs parses a MsgMultiPut Value payload.
func DecodePutSubs(buf []byte) ([]PutSub, error) {
	return decodePutSubs(nil, buf, nil)
}

// decodePutSubs parses a MsgMultiPut Value payload into dst's slice,
// interning names in names when given. Keys and values are always fresh:
// the cache keeps them.
func decodePutSubs(dst []PutSub, buf []byte, names nameTable) ([]PutSub, error) {
	d := decoder{buf: buf}
	n, err := d.batchCount()
	if err != nil {
		return nil, err
	}
	subs := slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		sd := decoder{buf: d.sub(), names: names}
		s := PutSub{Function: sd.str()}
		if kn := sd.u32(); kn > 0 && sd.err == nil {
			if uint64(kn) > uint64(sd.remaining()) {
				return nil, errors.New("service: corrupt sub key map length")
			}
			s.Keys = make(map[string]vec.Vector, kn)
			for j := uint32(0); j < kn && sd.err == nil; j++ {
				name := sd.str()
				s.Keys[name] = sd.vector()
			}
		}
		s.Value = sd.bytes()
		s.Cost = sd.i64()
		s.Size = sd.i64()
		s.TTL = sd.i64()
		s.Trace = sd.u64()
		if sd.err != nil {
			return nil, sd.err
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// EncodePutSubReplies serializes per-sub put outcomes.
func EncodePutSubReplies(subs []PutSubReply) []byte {
	return appendPutSubReplies(nil, subs)
}

// appendPutSubReplies appends the encoding of EncodePutSubReplies to dst.
func appendPutSubReplies(dst []byte, subs []PutSubReply) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(subs)))
	for _, s := range subs {
		at := e.openSub()
		e.str(s.Error)
		e.u64(s.ID)
		e.u64(s.Trace)
		e.closeSub(at)
	}
	return e.buf
}

// DecodePutSubReplies parses a MsgReplyMultiPut Value payload.
func DecodePutSubReplies(buf []byte) ([]PutSubReply, error) {
	d := decoder{buf: buf}
	n, err := d.batchCount()
	if err != nil {
		return nil, err
	}
	subs := make([]PutSubReply, 0, n)
	for i := 0; i < n; i++ {
		sd := decoder{buf: d.sub()}
		subs = append(subs, PutSubReply{
			Error: sd.str(),
			ID:    sd.u64(),
			Trace: sd.u64(),
		})
		if sd.err != nil {
			return nil, sd.err
		}
	}
	return subs, nil
}

// WriteFrame writes a length-prefixed message in one Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	buf := append(make([]byte, 4, 4+len(payload)), payload...)
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed message, and no byte beyond it.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	return readBody(r, n)
}

// frameLen parses and bounds a frame's length prefix.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxMessageSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n)
	}
	return int(n), nil
}

// bodyChunk bounds how far readBody allocates ahead of the bytes received.
const bodyChunk = 64 << 10

// readBody reads an n-byte frame body. The buffer grows with the data, a
// chunk at a time: a length prefix is a claim, and a peer that claims
// MaxMessageSize and sends nothing must cost a chunk, not 16 MiB.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, bodyChunk))
	for len(buf) < n {
		have := len(buf)
		buf = append(buf, make([]byte, min(n-have, bodyChunk))...)
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// frameReader delivers a connection's frames through a connBufSize
// buffer, so that one read of the connection takes in every frame already
// queued there. The underlying reader is asked for bytes only when the
// buffer holds no complete frame; body tells it which part of a frame the
// read waits for.
type frameReader struct {
	br   *bufio.Reader
	skip int  // bytes of the previous frame still to discard
	body bool // the frame's header is in and its body is not
}

func newFrameReader(r io.Reader) frameReader {
	return frameReader{br: bufio.NewReaderSize(r, connBufSize)}
}

// next returns the next frame's payload, valid until the following call.
// A frame that fits the buffer is returned in place; a larger one is read
// into memory of its own.
func (fr *frameReader) next() ([]byte, error) {
	fr.br.Discard(fr.skip) // cannot fail: the bytes were peeked
	fr.skip, fr.body = 0, false
	hdr, err := fr.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	fr.body = true
	if 4+n > fr.br.Size() {
		fr.br.Discard(4)
		return readBody(fr.br, n)
	}
	frame, err := fr.br.Peek(4 + n)
	if err != nil {
		return nil, err
	}
	fr.skip = 4 + n
	return frame[4:], nil
}
