package service

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/vec"
)

// FuzzDecodeRequest hardens the wire decoder against arbitrary bytes:
// it must never panic, and anything it accepts must re-encode and
// re-decode to the same structure (decode∘encode idempotence).
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(&Request{Type: MsgLookup, Function: "f", KeyType: "k", Key: vec.Vector{1, 2}}))
	f.Add(EncodeRequest(&Request{
		Type: MsgPut, App: "a", Function: "f",
		Keys:  map[string]vec.Vector{"x": {3}},
		Value: []byte("v"), Cost: 5, TTL: 7,
	}))
	f.Add(EncodeRequest(&Request{
		Type:     MsgRegister,
		Function: "f",
		KeyTypes: []KeyTypeDef{{Name: "k", Metric: "euclidean", Index: "kdtree", Dim: 2}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Error-path seeds: unknown message type, zero-length vectors.
	f.Add(EncodeRequest(&Request{Type: 99, Function: "f"}))
	f.Add(EncodeRequest(&Request{Type: MsgLookup, Function: "f", KeyType: "k", Key: vec.Vector{}}))
	f.Add(EncodeRequest(&Request{Type: MsgPut, Function: "f", Keys: map[string]vec.Vector{"k": {}}}))
	// Boundary-length seeds: field lengths near MaxUint32 must be
	// rejected by the uint64 comparisons, not wrapped on 32-bit ints.
	f.Add(hostileLengthFrame(0xFFFFFFFF)) // string length = MaxUint32
	f.Add(hostileLengthFrame(0x80000000)) // length = MinInt32 as uint
	f.Add(hostileLengthFrame(0x7FFFFFFF)) // length = MaxInt32
	f.Add(hostileVectorFrame(0x20000001)) // 8*n overflows int32
	f.Add(hostileVectorFrame(0xFFFFFFFF))
	f.Add(hostileMapCountFrame(0xFFFFFFFF))
	// Batch envelopes ride through DecodeRequest as opaque Value bytes;
	// seed one so the fuzzer explores the envelope path too.
	f.Add(EncodeRequest(&Request{
		Type: MsgMultiLookup, App: "a",
		Value: EncodeLookupSubs([]LookupSub{{Function: "f", KeyType: "k", Key: vec.Vector{1}}}),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re := EncodeRequest(req)
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeRequest(req2), re) {
			t.Fatal("encode not stable across round trips")
		}
	})
}

// FuzzDecodeReply mirrors FuzzDecodeRequest for the reply direction.
func FuzzDecodeReply(f *testing.F) {
	f.Add(EncodeReply(&Reply{Type: MsgReplyLookup, Hit: true, Value: []byte("v"), Distance: 1.5}))
	f.Add(EncodeReply(&Reply{Type: MsgReplyError, Error: "boom"}))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := DecodeReply(data)
		if err != nil {
			return
		}
		re := EncodeReply(reply)
		if _, err := DecodeReply(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzReadFrame checks the framing layer against hostile prefixes.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, []byte("payload"))
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxMessageSize {
			t.Fatalf("oversized payload accepted: %d", len(payload))
		}
	})
}

// hostileLengthFrame builds a request payload whose App-string length
// field is the given value with almost no bytes behind it.
func hostileLengthFrame(n uint32) []byte {
	buf := []byte{byte(MsgLookup)}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 'x')
}

// hostileVectorFrame builds a request payload whose Key vector length
// field is the given value (App/Function/KeyType empty).
func hostileVectorFrame(n uint32) []byte {
	buf := []byte{byte(MsgLookup)}
	for i := 0; i < 3; i++ { // empty App, Function, KeyType
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 1, 2, 3, 4, 5, 6, 7, 8)
}

// hostileMapCountFrame builds a request payload whose Keys map count is
// the given value.
func hostileMapCountFrame(n uint32) []byte {
	buf := []byte{byte(MsgPut)}
	for i := 0; i < 4; i++ { // empty App, Function, KeyType, Key
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 0, 0, 0, 0)
}

// frame prefixes a payload with its length header, bypassing WriteFrame's
// size check so hostile prefixes can be synthesized.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzServerStream drives a connection handler with arbitrary bytes cut
// into arbitrary reads: whatever arrives — truncated frames, oversize
// prefixes, unknown message types, zero-length vectors, garbage — the
// handler must neither panic nor hang, every reply it emits must decode,
// and the replies must be the ones the same bytes draw when they arrive
// one frame to a read. That delivery never has a second request buffered,
// so it is the loop with nothing coalesced: the reference for what
// bursts, split headers and frames straddling two reads may not change.
func FuzzServerStream(f *testing.F) {
	seeds := [][]byte{
		frame(EncodeRequest(&Request{
			Type: MsgRegister, Function: "f",
			KeyTypes: []KeyTypeDef{{Name: "k"}},
		})),
		frame(EncodeRequest(&Request{Type: MsgStats})),
		frame(EncodeRequest(&Request{Type: 99})),                                               // unknown type
		frame(EncodeRequest(&Request{Type: MsgLookup, Function: "f", Key: vec.Vector{}})),      // zero-length vector
		frame(EncodeRequest(&Request{Type: MsgLookup, Function: "f", Key: vec.Vector{1}}))[:7], // truncated frame
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},                                                      // oversize length prefix
		{0, 0, 0},                                                                              // short header
	}
	// A burst of everything: register, puts, lookups, a batch, stats, and
	// an oversize prefix that ends the connection with replies queued.
	key := map[string]vec.Vector{"k": {1, 2}}
	burst := bytes.Join([][]byte{
		seeds[0],
		frame(EncodeRequest(&Request{Type: MsgPut, App: "a", Function: "f", Keys: key, Value: []byte("v"), Cost: 5})),
		frame(EncodeRequest(&Request{Type: MsgLookup, App: "a", Function: "f", KeyType: "k", Key: vec.Vector{1, 2}})),
		frame(EncodeRequest(&Request{Type: MsgLookup, App: "b", Function: "f", KeyType: "k", Key: vec.Vector{9, 9}})),
		frame(EncodeRequest(&Request{Type: MsgMultiLookup, App: "a", Value: EncodeLookupSubs([]LookupSub{
			{Function: "f", KeyType: "k", Key: vec.Vector{1, 2}}, {Function: "g", KeyType: "k", Key: vec.Vector{1}},
		})})),
		frame(EncodeRequest(&Request{Type: MsgMultiPut, App: "a", Value: EncodePutSubs([]PutSub{{Function: "f", Keys: key, Value: []byte("w")}})})),
		seeds[1],
		seeds[5],
	}, nil)
	// A single lookup, a one-sub batch on another key, then a put: every
	// one of them runs in the connection's scratch, each after another
	// message type.
	reuse := bytes.Join([][]byte{
		seeds[0],
		frame(EncodeRequest(&Request{Type: MsgLookup, App: "a", Function: "f", KeyType: "k", Key: vec.Vector{1, 2, 3}})),
		frame(EncodeRequest(&Request{Type: MsgMultiLookup, App: "a", Value: EncodeLookupSubs([]LookupSub{
			{Function: "f", KeyType: "k", Key: vec.Vector{4, 5}},
		})})),
		frame(EncodeRequest(&Request{Type: MsgPut, App: "a", Function: "f", Keys: key, Value: []byte("v")})),
	}, nil)
	for i, seed := range append(seeds, burst, reuse) {
		f.Add(seed, uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		want := serveScript(t, frameChunks(data))
		got := serveScript(t, randomChunks(data, cuts))
		if len(got) != len(want) {
			t.Fatalf("%d replies to the chunked stream, %d to the same bytes a frame at a time", len(got), len(want))
		}
		for i := range want {
			// Compared as bytes: a NaN distance is not equal to itself.
			if !bytes.Equal(EncodeReply(got[i]), EncodeReply(want[i])) {
				t.Fatalf("reply %d to the chunked stream is %+v, a frame at a time %+v", i, got[i], want[i])
			}
		}
	})
}

// serveScript runs a fresh server's connection loop over the scripted
// reads and returns the replies it wrote, each checked to decode. The
// cache's clock stands still, so that replies carry no wall time.
func serveScript(t *testing.T, chunks [][]byte) []*Reply {
	t.Helper()
	srv := NewServer(core.New(core.Config{
		DisableDropout: true,
		Clock:          clock.NewVirtual(time.Unix(1000, 0)),
	}))
	conn := newScriptConn(chunks...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(conn, &connState{})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection handler hung on hostile input")
	}
	_, replies := conn.written(t)
	return replies
}

// frameChunks cuts a stream at its frame boundaries; whatever follows an
// oversize prefix or a last partial frame stays in one piece.
func frameChunks(data []byte) [][]byte {
	var chunks [][]byte
	for len(data) >= 4 {
		n := uint64(binary.BigEndian.Uint32(data))
		if n > MaxMessageSize || 4+n > uint64(len(data)) {
			break
		}
		chunks = append(chunks, data[:4+n])
		data = data[4+n:]
	}
	if len(data) > 0 {
		chunks = append(chunks, data)
	}
	return chunks
}

// randomChunks cuts a stream into reads of 1 to 256 bytes, mostly short,
// drawn from the seed.
func randomChunks(data []byte, seed uint64) [][]byte {
	rng := rand.New(rand.NewSource(int64(seed)))
	var chunks [][]byte
	for len(data) > 0 {
		n := min(1+rng.Intn(1+rng.Intn(256)), len(data))
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// FuzzClientReply drives the client's reply path with arbitrary bytes
// standing in for the server: the round trip must fail cleanly or
// succeed, never panic or hang, and an undecodable reply must poison the
// connection.
func FuzzClientReply(f *testing.F) {
	f.Add(frame(EncodeReply(&Reply{Type: MsgReplyLookup, Hit: true, Value: []byte("v")})))
	f.Add(frame(EncodeReply(&Reply{Type: MsgReplyError, Error: "boom"})))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cconn, sconn := net.Pipe()
		cl := NewClientConn(cconn, "fuzz")
		cl.cfg.RequestTimeout = 500 * time.Millisecond
		go func() {
			// Absorb the request, answer with the fuzzed bytes, hang up.
			io.ReadFull(sconn, make([]byte, 4))
			sconn.Write(data)
			sconn.Close()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			cl.Lookup("f", "k", vec.Vector{1})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("client round trip hung on hostile reply")
		}
		cl.Close()
	})
}
