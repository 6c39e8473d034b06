package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// This file tests the connection loop's unit of I/O — the burst — with no
// socket, no sleeps and no clock: a scripted connection hands the loop
// its reads and counts its writes, testHookDispatch holds requests where
// the test wants them, and the flush rule reads a clock the test owns.

// scriptConn is the server's end of a connection that exists only as a
// script: each Read returns the next chunk whole, and every Write is
// recorded as the one call it was. After the script Read reports EOF, or,
// with hang set, blocks until Close like a peer that went quiet.
type scriptConn struct {
	hang bool

	mu     sync.Mutex
	chunks [][]byte
	writes [][]byte
	closed chan struct{}
}

func newScriptConn(chunks ...[]byte) *scriptConn {
	return &scriptConn{chunks: chunks, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.chunks) == 0 {
		c.mu.Unlock()
		if c.hang {
			<-c.closed
		}
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	c.mu.Unlock()
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

// written returns the Write calls so far and the reply frames in them.
func (c *scriptConn) written(t *testing.T) (writes int, replies []*Reply) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := bytes.NewReader(bytes.Join(c.writes, nil))
	for r.Len() > 0 {
		payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("server wrote a torn frame: %v", err)
		}
		reply, err := DecodeReply(payload)
		if err != nil {
			t.Fatalf("server wrote an undecodable reply: %v", err)
		}
		replies = append(replies, reply)
	}
	return len(c.writes), replies
}

// burstServer is a server with n entries v0..v(n-1) under keys {i, 5},
// and a clock that only moves when the test moves it.
func burstServer(t *testing.T, n int) (*Server, *time.Time) {
	t.Helper()
	srv := NewServer(core.New(testConfig()))
	if err := srv.Cache().RegisterFunction("f", core.KeyTypeSpec{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := srv.Cache().Put("f", corePutReq("k", vec.Vector{float64(i), 5}, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Unix(1000, 0)
	srv.now = func() time.Time { return now }
	return srv, &now
}

func lookupFrame(i int) []byte {
	return frame(EncodeRequest(&Request{Type: MsgLookup, App: "app", Function: "f", KeyType: "k", Key: vec.Vector{float64(i), 5}}))
}

func putFrame(i int) []byte {
	return frame(EncodeRequest(&Request{
		Type: MsgPut, App: "app", Function: "f",
		Keys: map[string]vec.Vector{"k": {float64(i), 9}}, Value: []byte("put"),
	}))
}

func wantHits(t *testing.T, replies []*Reply, from, n int) {
	t.Helper()
	if len(replies) != n {
		t.Fatalf("%d replies, want %d", len(replies), n)
	}
	for i, r := range replies {
		if want := fmt.Sprintf("v%d", from+i); r.Type != MsgReplyLookup || !r.Hit || string(r.Value) != want {
			t.Fatalf("reply %d = %+v, want a hit on %s (replies out of order?)", i, r, want)
		}
	}
}

// TestBurstOneReadOneWrite: 32 lookups that arrive in one read are
// answered in order by one write, and the two counters say so.
func TestBurstOneReadOneWrite(t *testing.T) {
	srv, _ := burstServer(t, 32)
	tel := telemetry.New()
	srv.Instrument(tel)
	var burst []byte
	for i := 0; i < 32; i++ {
		burst = append(burst, lookupFrame(i)...)
	}
	conn := newScriptConn(burst)
	srv.handleConn(conn, &connState{})

	writes, replies := conn.written(t)
	wantHits(t, replies, 0, 32)
	if writes != 1 { // the issue allows 4; on a stopped clock only the drained buffer flushes
		t.Errorf("32 pipelined lookups took %d writes, want 1", writes)
	}
	if got := srv.met.replies.Value(); got != 32 {
		t.Errorf("replies written counter = %d, want 32", got)
	}
	if got := srv.met.flushes.Value(); got != int64(writes) {
		t.Errorf("flushes counter = %d, want %d", got, writes)
	}
}

// TestQueuedReplyNotHeldBehindSlowRequest: a lookup's reply queued ahead
// of a put reaches the peer before the put runs — because nothing is
// known of puts on this connection yet, or because the last one was slow.
func TestQueuedReplyNotHeldBehindSlowRequest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		warm    bool // a first put, 1 ms long on the test's clock, precedes the burst
		flushed int  // replies the peer holds while the burst's put is held
	}{
		{"first put on the connection", false, 1},
		{"puts known to be slow", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, now := burstServer(t, 1)
			entered, release := make(chan struct{}), make(chan struct{})
			puts := 0
			srv.testHookDispatch = func(req *Request) {
				if req.Type != MsgPut {
					return
				}
				if puts++; tc.warm && puts == 1 {
					*now = now.Add(time.Millisecond)
					return
				}
				close(entered)
				<-release
			}
			chunks := [][]byte{append(lookupFrame(0), putFrame(1)...)}
			if tc.warm {
				chunks = append([][]byte{putFrame(0)}, chunks...)
			}
			conn := newScriptConn(chunks...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.handleConn(conn, &connState{})
			}()

			<-entered // the burst's put is in its handler slot, not yet executed
			_, replies := conn.written(t)
			if len(replies) != tc.flushed || replies[len(replies)-1].Type != MsgReplyLookup {
				t.Fatalf("peer holds %d replies while the put is held, want %d ending in the lookup's", len(replies), tc.flushed)
			}
			close(release)
			<-done
			if _, replies = conn.written(t); len(replies) != tc.flushed+1 || replies[tc.flushed].Type != MsgReplyPut {
				t.Fatalf("after release: %d replies, want %d ending in the put's", len(replies), tc.flushed+1)
			}
		})
	}
}

// TestDrainDuringBufferedBurst: Close while the third of eight buffered
// requests executes. Every request dispatched gets its reply, once and in
// order; none after it is dispatched.
func TestDrainDuringBufferedBurst(t *testing.T) {
	srv, _ := burstServer(t, 8)
	entered, release := make(chan struct{}), make(chan struct{})
	dispatched := 0
	srv.testHookDispatch = func(*Request) {
		if dispatched++; dispatched == 3 {
			close(entered)
			<-release
		}
	}
	var burst []byte
	for i := 0; i < 8; i++ {
		burst = append(burst, lookupFrame(i)...)
	}
	conn := newScriptConn(burst)
	conn.hang = true // without the drain rule the loop would wait here forever
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(conn, &connState{})
	}()

	<-entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done
	if dispatched != 3 {
		t.Errorf("%d requests dispatched, want 3: none after Close", dispatched)
	}
	_, replies := conn.written(t)
	wantHits(t, replies, 0, 3)
}

// TestStalledBodyCostsAChunk: a header that claims nearly MaxMessageSize
// followed by silence is evicted by ReadTimeout having cost the server a
// chunk of memory, not the claim.
func TestStalledBodyCostsAChunk(t *testing.T) {
	_, sock := startServerCfg(t, testConfig(), ServerConfig{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize-1)
	conn.Write(append(hdr[:], make([]byte, 10)...))
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server replied to a stalled frame")
	} else if errDeadline(err) != nil {
		t.Fatalf("server did not evict the stalled frame within its read deadline: %v", err)
	}

	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a stalled %d-byte claim made the process allocate %d bytes, want < 1 MiB", MaxMessageSize-1, grew)
	}
}

// TestWriteErrorMidCombineFailsEveryWaiterOnce: three senders share one
// buffer; the first is stuck in its write (nothing reads the pipe) while
// the other two append behind it. When the write fails, each of the three
// round trips fails, once (a second send to a waiter would block fail
// forever, and the test with it), and the connection is poisoned.
func TestWriteErrorMidCombineFailsEveryWaiterOnce(t *testing.T) {
	cconn, sconn := net.Pipe()
	cl := NewClientConn(cconn, "app")
	defer cl.Close()
	cc := cl.cc

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := cl.Lookup("f", "k", vec.Vector{float64(i)})
			errs <- err
		}(i)
	}
	for queued := 0; queued < 3; runtime.Gosched() {
		cc.mu.Lock()
		queued = len(cc.pending)
		cc.mu.Unlock()
	}
	sconn.Close() // fails the write in progress

	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrConnBroken) {
			t.Errorf("round trip %d: %v, want ErrConnBroken", i, err)
		}
	}
	if _, err := cl.Stats(); !errors.Is(err, ErrConnBroken) {
		t.Errorf("request after the failed write: %v, want ErrConnBroken", err)
	}
}
