package service

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// ErrConnBroken marks a connection that suffered an I/O failure mid
// round trip. The request/reply framing on such a connection can no
// longer be trusted — a late reply to the failed request could be read
// as the answer to the next one — so the connection is poisoned and
// never reused; the next request redials (or fails fast when the client
// wraps a connection it cannot redial).
var ErrConnBroken = errors.New("service: connection broken")

// ErrClientClosed is returned by requests issued after (or interrupted
// by) Close.
var ErrClientClosed = errors.New("service: client closed")

// ClientConfig tunes the client's robustness behaviour. The zero value
// selects production defaults; negative durations disable the
// corresponding limit.
type ClientConfig struct {
	// RequestTimeout bounds one round trip (request write + reply read).
	// A request that overruns it fails and poisons the connection.
	// 0 = 30s; < 0 = no limit.
	RequestTimeout time.Duration
	// DialTimeout bounds each (re)connect attempt. 0 = 5s; < 0 = no limit.
	DialTimeout time.Duration
	// MaxAttempts is the number of tries a request gets across
	// reconnects, the first included. It only applies to connection
	// failures: errors the server itself replies with are never retried.
	// 0 = 3; values < 1 mean one attempt.
	MaxAttempts int
	// BackoffBase is the delay before the first retry; it doubles per
	// attempt up to BackoffMax, with ±50% jitter so a fleet of clients
	// does not redial a recovering server in lockstep. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts < 1 {
		if cfg.MaxAttempts == 0 {
			cfg.MaxAttempts = 3
		} else {
			cfg.MaxAttempts = 1
		}
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	return cfg
}

// waiter is one round trip's place in a connection's reply order. The
// reader decodes the reply into it and then sends the outcome on done;
// waiters are recycled, so the round trip allocates neither.
type waiter struct {
	done     chan error // capacity 1; exactly one send per round trip
	reply    Reply
	deadline time.Time // zero: no limit
}

var waiterPool = sync.Pool{New: func() any { return &waiter{done: make(chan error, 1)} }}

// clientConn is one live connection with pipelined framing: concurrent
// round trips interleave on the wire instead of serializing behind each
// other. Senders append their frames to one buffer and the first to find
// no write in progress writes for all of them; a single reader goroutine
// matches replies to waiters in FIFO order (the server processes a
// connection's requests sequentially, so reply order equals request
// order).
//
// Correctness hinges on three rules:
//
//  1. A frame enters the buffer and its waiter the pending queue in one
//     critical section, and the buffer is written in order, so queue
//     order always matches wire order and a fast reply can never arrive
//     before its waiter is enqueued.
//  2. mu is never held across I/O — a writer blocked on a stuffed socket
//     must not be able to wedge the reader (or Close). (Setting a
//     deadline is not I/O and is done under mu, to order it against the
//     queue it is computed from.)
//  3. Each waiter receives exactly one send: the reader's pop and fail's
//     drain both happen under mu, and a popped waiter is owned by whoever
//     popped it. done is buffered so delivery never blocks, and a waiter
//     goes back to the pool only after its one receive.
//
// Any failure — read, write, decode, timeout, unsolicited reply —
// poisons the whole connection: the framing can no longer be trusted,
// so every in-flight round trip fails and the next request redials.
//
// A round trip that overruns its timeout is found by the reader, not by a
// timer of its own: the connection's read deadline is kept at the oldest
// waiter's, which is the first to expire.
type clientConn struct {
	conn   net.Conn
	frames frameReader // reads through Read below; the reader goroutine's

	// mu guards everything below; never held across I/O.
	mu       sync.Mutex
	pending  []*waiter
	err      error  // non-nil once poisoned; sticky
	out      []byte // frames appended and not yet taken by a write
	spare    []byte // the buffer the last write used, for the next swap
	flushing bool   // a sender is writing, and will write what is appended
	burst    int    // replies the reader's latest read delivered
	fresh    bool   // that read has delivered none yet; the reader goroutine's

	// onBroken is invoked once when the connection is poisoned by a
	// failure (not by Close); nil disables.
	onBroken func()
}

func newClientConn(conn net.Conn, onBroken func()) *clientConn {
	cc := &clientConn{conn: conn, onBroken: onBroken}
	cc.frames = newFrameReader(cc)
	go cc.readLoop()
	return cc
}

// Read is where the reader goroutine blocks; it sets the read deadline to
// the oldest waiter's first (none when nothing is pending: send sets it
// for the waiter that ends that).
func (cc *clientConn) Read(p []byte) (int, error) {
	cc.mu.Lock()
	var t time.Time
	if len(cc.pending) > 0 {
		t = cc.pending[0].deadline
	}
	cc.conn.SetReadDeadline(t)
	cc.mu.Unlock()
	cc.fresh = true
	return cc.conn.Read(p)
}

// readLoop is the connection's single reader: it decodes each reply into
// the oldest waiter and wakes it. It exits when the connection fails or
// is closed.
func (cc *clientConn) readLoop() {
	for {
		payload, err := cc.frames.next()
		if err != nil {
			if isTimeout(err) {
				err = errors.New("request timed out")
			}
			cc.fail(fmt.Errorf("%w: read: %w", ErrConnBroken, err))
			return
		}
		cc.mu.Lock()
		if len(cc.pending) == 0 {
			cc.mu.Unlock()
			cc.fail(fmt.Errorf("%w: unsolicited reply", ErrConnBroken))
			return
		}
		if cc.fresh {
			cc.fresh, cc.burst = false, 0
		}
		cc.burst++
		w := cc.pending[0]
		cc.pending[0] = nil
		if len(cc.pending) == 1 {
			cc.pending = cc.pending[:0] // keeps the slot: a lone caller's next trip allocates nothing
		} else {
			cc.pending = cc.pending[1:]
		}
		cc.mu.Unlock()
		if err := decodeReply(&w.reply, payload); err != nil {
			// A reply we cannot parse means the stream is desynchronized.
			err = fmt.Errorf("%w: %w", ErrConnBroken, err)
			w.done <- err
			cc.fail(err)
			return
		}
		w.done <- nil
	}
}

// fail poisons the connection: the first failure wins, every in-flight
// waiter receives it, and the underlying conn is closed (unblocking the
// reader and any stuck writer).
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	cc.conn.Close()
	if cc.onBroken != nil && !errors.Is(err, ErrClientClosed) {
		cc.onBroken()
	}
	for _, w := range pending {
		w.done <- err
	}
}

// healthy reports whether the connection can still carry requests.
func (cc *clientConn) healthy() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// send performs one pipelined round trip: append the frame and enqueue
// the waiter, see that the buffer gets written, wait for the FIFO-matched
// reply and copy it to reply. timeout bounds the whole trip (<= 0 means
// no limit); an overrun poisons the connection, because a reply we walked
// away from would desynchronize the stream. A request over MaxMessageSize
// fails before any of it reaches the wire; the connection stays clean.
func (cc *clientConn) send(req *Request, reply *Reply, timeout time.Duration) error {
	w := waiterPool.Get().(*waiter)
	w.deadline = time.Time{}
	if timeout > 0 {
		w.deadline = time.Now().Add(timeout)
	}
	cc.mu.Lock()
	err := cc.err
	if err == nil {
		if cc.out, err = AppendRequest(cc.out, req); err != nil && len(cc.out) == 0 {
			cc.out = trimBuf(cc.out)
		}
	}
	if err != nil {
		cc.mu.Unlock()
		waiterPool.Put(w)
		return err
	}
	if cc.pending = append(cc.pending, w); len(cc.pending) == 1 {
		cc.conn.SetReadDeadline(w.deadline)
	}
	flusher, together := !cc.flushing, cc.burst > 1
	cc.flushing = true
	cc.mu.Unlock()
	if flusher {
		if together {
			// The reader's last read woke several callers, so the others
			// are about to send too: let them append first and the burst
			// leaves in one write. A caller woken alone has nobody to wait
			// for, and would pay the yield for nothing.
			runtime.Gosched()
		}
		cc.flush(timeout)
	}
	err = <-w.done // the reader's reply or fail's error, exactly one
	if err == nil {
		*reply = w.reply
	}
	w.reply = Reply{}
	waiterPool.Put(w)
	return err
}

// flush writes the buffered frames, and whatever is appended while it
// writes, until the buffer is empty: one Write per pass.
func (cc *clientConn) flush(timeout time.Duration) {
	var done []byte
	for {
		cc.mu.Lock()
		if done != nil {
			cc.spare = trimBuf(done)
		}
		buf := cc.out
		if len(buf) == 0 || cc.err != nil {
			cc.flushing = false
			cc.mu.Unlock()
			return
		}
		cc.out, cc.spare = cc.spare, nil
		cc.mu.Unlock()
		if timeout > 0 {
			cc.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := cc.conn.Write(buf); err != nil {
			// Frames may be partially written: the stream is unusable, for
			// every waiter whose frame was in buf or is still in out.
			cc.fail(fmt.Errorf("%w: write: %w", ErrConnBroken, err))
		}
		done = buf
	}
}

// Client is an application's handle to the Potluck service, wrapping the
// register()/lookup()/put() API of §4.3 over the wire protocol. It is
// safe for concurrent use; concurrent requests are pipelined over one
// connection (framing interleaves on the wire, replies are matched back
// in FIFO order), so a batch in flight never serializes behind a slow
// single lookup.
//
// The client survives service restarts: a failed round trip poisons the
// current connection and the next request transparently redials with
// capped exponential backoff. Close is always prompt, even while a
// request is blocked on a dead server.
type Client struct {
	app     string
	cfg     ClientConfig
	network string
	addr    string // empty when wrapping a caller-supplied conn (no redial)

	// dialMu serializes redials so a burst of requests hitting a
	// poisoned connection dials once, not once each. Close deliberately
	// does not take it: Close must stay prompt while a dial is stuck.
	dialMu sync.Mutex

	// stateMu guards the connection slot and lifecycle flags. It is
	// never held across network I/O.
	stateMu sync.Mutex
	cc      *clientConn
	closed  bool

	// met holds the reconnect-path counters; nil until Instrument.
	met atomic.Pointer[clientMetrics]
}

// Dial connects to a Potluck service with default robustness settings.
// app names the calling application for reputation tracking and
// diagnostics.
func Dial(network, addr, app string) (*Client, error) {
	return DialConfig(network, addr, app, ClientConfig{})
}

// DialConfig connects to a Potluck service with explicit robustness
// settings.
func DialConfig(network, addr, app string, cfg ClientConfig) (*Client, error) {
	c := &Client{app: app, cfg: cfg.withDefaults(), network: network, addr: addr}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.cc = newClientConn(conn, c.countBroken)
	return c, nil
}

// NewLazyClient returns a client that has not dialed yet: the first
// request triggers the connect. A mesh boots its peer clients this way
// because peers come up in arbitrary order — an eager dial at daemon
// start would fail on any peer that is not listening yet, while the
// breaker in front of a lazy client absorbs early connection failures
// and re-probes on its own schedule.
func NewLazyClient(network, addr, app string, cfg ClientConfig) *Client {
	return &Client{app: app, cfg: cfg.withDefaults(), network: network, addr: addr}
}

// NewClientConn wraps an existing connection (e.g. a net.Pipe in tests).
// Such a client cannot redial: once the connection is poisoned, requests
// fail with ErrConnBroken.
func NewClientConn(conn net.Conn, app string) *Client {
	c := &Client{app: app, cfg: ClientConfig{}.withDefaults()}
	c.cc = newClientConn(conn, c.countBroken)
	return c
}

func (c *Client) countBroken() {
	if m := c.met.Load(); m != nil {
		m.broken.Inc()
	}
}

func (c *Client) dial() (net.Conn, error) {
	var (
		conn net.Conn
		err  error
	)
	if c.cfg.DialTimeout > 0 {
		conn, err = net.DialTimeout(c.network, c.addr, c.cfg.DialTimeout)
	} else {
		conn, err = net.Dial(c.network, c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("service: dial %s/%s: %w", c.network, c.addr, err)
	}
	return conn, nil
}

// Close releases the connection. It never waits for an in-flight round
// trip: failing the connection out from under one is what unblocks it.
func (c *Client) Close() error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.stateMu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
	}
	return nil
}

// acquireConn returns a healthy connection, redialing if the previous
// one was poisoned. Dialing happens under dialMu with no state lock
// held, so Close stays prompt and concurrent requests share one redial.
func (c *Client) acquireConn() (*clientConn, error) {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil, ErrClientClosed
	}
	if c.cc != nil && c.cc.healthy() {
		cc := c.cc
		c.stateMu.Unlock()
		return cc, nil
	}
	c.stateMu.Unlock()
	if c.network == "" {
		return nil, ErrConnBroken
	}

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Recheck under dialMu: a concurrent request may have redialed while
	// we waited for the lock.
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil, ErrClientClosed
	}
	if c.cc != nil && c.cc.healthy() {
		cc := c.cc
		c.stateMu.Unlock()
		return cc, nil
	}
	old := c.cc
	c.cc = nil
	c.stateMu.Unlock()
	if old != nil {
		old.fail(ErrConnBroken)
	}

	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	if m := c.met.Load(); m != nil {
		m.redials.Inc()
	}
	cc := newClientConn(conn, c.countBroken)
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		cc.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	c.cc = cc
	c.stateMu.Unlock()
	return cc, nil
}

// backoff returns the pre-retry delay for the given attempt: exponential
// from BackoffBase, capped at BackoffMax, with ±50% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 0; i < attempt && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// roundTrip sends one request and reads its reply into reply, redialing
// and retrying on connection failures up to MaxAttempts. Concurrent round
// trips pipeline over the shared connection.
func (c *Client) roundTrip(req *Request, reply *Reply) error {
	req.App = c.app
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if m := c.met.Load(); m != nil {
				m.retries.Inc()
			}
			time.Sleep(c.backoff(attempt - 1))
		}
		cc, err := c.acquireConn()
		if err != nil {
			if errors.Is(err, ErrClientClosed) || errors.Is(err, ErrConnBroken) {
				// Closed, or poisoned with no redial path: retrying
				// cannot help.
				return err
			}
			lastErr = err // dial failure: back off and retry
			continue
		}
		err = cc.send(req, reply, c.cfg.RequestTimeout)
		if err == nil {
			if reply.Type == MsgReplyError {
				// The server answered; its error is final and the
				// connection stays healthy.
				return fmt.Errorf("service: %s", reply.Error)
			}
			return nil
		}
		if !errors.Is(err, ErrConnBroken) {
			return err // an oversize request: nothing was sent
		}
		lastErr = err
		if c.network == "" {
			return err // cannot redial a wrapped connection
		}
	}
	return lastErr
}

// Register registers a function and its key types with the service
// (§4.3: "registers a handle with the cache service ... and initializes
// the application-specific key index. It also resets the input
// similarity threshold").
func (c *Client) Register(function string, keyTypes ...KeyTypeDef) error {
	if len(keyTypes) == 0 {
		return errors.New("service: at least one key type required")
	}
	var reply Reply
	return c.roundTrip(&Request{
		Type:     MsgRegister,
		Function: function,
		KeyTypes: keyTypes,
	}, &reply)
}

// LookupResult is the client-side view of a lookup outcome.
type LookupResult struct {
	Hit       bool
	Dropout   bool
	Value     []byte
	Distance  float64 // -1: no entry within 4·Threshold (an empty index at 0), or a dropout
	Threshold float64
	// MissedAt is the server clock time of a miss; pass it back to Put
	// so the service can compute the computation overhead.
	MissedAt time.Time
	// Trace is the trace ID this lookup ran under end to end: the one
	// passed to LookupTraced, or one the client minted. The server-side
	// spans for the request are retained under the same ID.
	Trace telemetry.TraceID
}

// Lookup queries the cache. Every client lookup carries a trace ID
// (minted here when the caller did not supply one via LookupTraced), so
// the server's /trace/spans and /debug/explain endpoints observe traffic
// from uninstrumented clients too; the ID costs eight bytes on the wire.
func (c *Client) Lookup(function, keyType string, key vec.Vector) (LookupResult, error) {
	return c.LookupTraced(function, keyType, key, 0)
}

// LookupTraced queries the cache under an explicit trace ID, correlating
// the server-side spans with the caller's own. trace == 0 mints a fresh
// ID. When the client is instrumented, the round trip is recorded as a
// client-layer span (stage "ipc") under the same ID.
func (c *Client) LookupTraced(function, keyType string, key vec.Vector, trace telemetry.TraceID) (LookupResult, error) {
	if trace == 0 {
		trace = telemetry.NewTraceID()
	}
	m := c.met.Load()
	var start time.Time
	if m != nil && m.spans != nil {
		start = time.Now()
	}
	var reply Reply
	err := c.roundTrip(&Request{
		Type:     MsgLookup,
		Function: function,
		KeyType:  keyType,
		Key:      key,
		Trace:    uint64(trace),
	}, &reply)
	if m != nil && m.spans != nil {
		recordClientSpan(m.spans, start, trace, function, keyType, &reply, err)
	}
	if err != nil {
		return LookupResult{}, err
	}
	res := LookupResult{
		Hit:       reply.Hit,
		Dropout:   reply.Dropout,
		Value:     reply.Value,
		Distance:  reply.Distance,
		Threshold: reply.Threshold,
		MissedAt:  time.Unix(0, reply.MissedAt),
		Trace:     telemetry.TraceID(reply.Trace),
	}
	if res.Trace == 0 {
		// Older server: no echo on the wire; the request still carried
		// our ID, so report the one we sent.
		res.Trace = trace
	}
	return res, nil
}

// recordClientSpan records the application-side view of one traced round
// trip: the ipc stage spans request encode to reply decode, so the gap
// between it and the server's serve-stage duration is wire + framing
// time.
func recordClientSpan(spans *telemetry.SpanRecorder, start time.Time, trace telemetry.TraceID,
	function, keyType string, reply *Reply, err error) {
	dur := time.Since(start)
	sp := telemetry.Span{
		Trace:       trace,
		Start:       start.UnixNano(),
		DurationNs:  int64(dur),
		Layer:       "client",
		Function:    function,
		KeyType:     keyType,
		Distance:    -1,
		DropoutRoll: -1,
		Probes:      -1,
		Stages: []telemetry.SpanStage{{
			Name: telemetry.StageIPC, DurationNs: int64(dur),
		}},
	}
	switch {
	case err != nil:
		sp.Outcome = telemetry.OutcomeError
		sp.Err = err.Error()
	case reply.Type == MsgReplyPut:
		sp.Outcome = telemetry.OutcomePut
	case reply.Dropout:
		sp.Outcome = telemetry.OutcomeDropout
	case reply.Hit:
		sp.Outcome = telemetry.OutcomeHit
		sp.Distance = reply.Distance
		sp.Threshold = reply.Threshold
	default:
		sp.Outcome = telemetry.OutcomeMiss
		sp.Distance = reply.Distance
		sp.Threshold = reply.Threshold
	}
	spans.Record(sp)
}

// PutOptions carries the optional fields of a put.
type PutOptions struct {
	// Cost is the measured computation overhead.
	Cost time.Duration
	// Size overrides the entry-size estimate.
	Size int
	// TTL overrides the service's default validity period.
	TTL time.Duration
	// Trace correlates the put with the lookup that missed (pass the
	// LookupResult's Trace). 0 leaves the put untraced.
	Trace telemetry.TraceID
}

// Put inserts a computed result under one or more keys.
func (c *Client) Put(function string, keys map[string]vec.Vector, value []byte, opts PutOptions) (uint64, error) {
	m := c.met.Load()
	var start time.Time
	if m != nil && m.spans != nil && opts.Trace != 0 {
		start = time.Now()
	}
	var reply Reply
	err := c.roundTrip(&Request{
		Type:     MsgPut,
		Function: function,
		Keys:     keys,
		Value:    value,
		Cost:     int64(opts.Cost),
		Size:     int64(opts.Size),
		TTL:      int64(opts.TTL),
		Trace:    uint64(opts.Trace),
	}, &reply)
	if m != nil && m.spans != nil && opts.Trace != 0 {
		recordClientSpan(m.spans, start, opts.Trace, function, "", &reply, err)
	}
	if err != nil {
		return 0, err
	}
	return reply.ID, nil
}

// PeerInfo exchanges mesh handshakes with the service: it sends this
// node's descriptor and returns the peer's. An old-style server answers
// the unknown message type with an in-band error (the connection stays
// healthy), which surfaces here as a normal error — callers treat it as
// "legacy peer, no mesh protocol".
func (c *Client) PeerInfo(info PeerInfo) (PeerInfo, error) {
	var reply Reply
	if err := c.roundTrip(&Request{Type: MsgPeerInfo, Value: EncodePeerInfo(&info)}, &reply); err != nil {
		return PeerInfo{}, err
	}
	theirs, err := DecodePeerInfo(reply.Value)
	if err != nil {
		return PeerInfo{}, fmt.Errorf("service: peer info reply: %w", err)
	}
	return *theirs, nil
}

// Stats fetches the service's cache counters.
func (c *Client) Stats() (StatsPayload, error) {
	var reply Reply
	if err := c.roundTrip(&Request{Type: MsgStats}, &reply); err != nil {
		return StatsPayload{}, err
	}
	return reply.Stats, nil
}

// MultiLookupResult is the client-side outcome of one batch sub-lookup.
// Err is this sub-operation's failure; a failed sub never fails its
// siblings.
type MultiLookupResult struct {
	LookupResult
	Err error
}

// MultiLookup issues a batch of lookups in one wire frame. The server
// fans the sub-lookups across its worker group and replies with one
// frame of index-aligned results. Sub-ops without a Trace get one
// minted here, so every sub-lookup is individually resolvable against
// the server's span endpoints.
//
// A batch against an old-style server fails whole with the server's
// "unknown request type" error; the connection stays usable.
func (c *Client) MultiLookup(subs []LookupSub) ([]MultiLookupResult, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	if len(subs) > MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(subs), MaxBatch)
	}
	sent := make([]LookupSub, len(subs))
	copy(sent, subs)
	for i := range sent {
		if sent[i].Trace == 0 {
			sent[i].Trace = uint64(telemetry.NewTraceID())
		}
	}
	var reply Reply
	if err := c.roundTrip(&Request{Type: MsgMultiLookup, Value: EncodeLookupSubs(sent)}, &reply); err != nil {
		return nil, err
	}
	srs, err := DecodeLookupSubReplies(reply.Value)
	if err != nil {
		return nil, fmt.Errorf("service: batch reply: %w", err)
	}
	if len(srs) != len(sent) {
		return nil, fmt.Errorf("service: batch reply has %d results for %d sub-ops", len(srs), len(sent))
	}
	out := make([]MultiLookupResult, len(srs))
	for i, sr := range srs {
		if sr.Error != "" {
			out[i] = MultiLookupResult{Err: fmt.Errorf("service: %s", sr.Error)}
			continue
		}
		res := LookupResult{
			Hit:       sr.Hit,
			Dropout:   sr.Dropout,
			Value:     sr.Value,
			Distance:  sr.Distance,
			Threshold: sr.Threshold,
			MissedAt:  time.Unix(0, sr.MissedAt),
			Trace:     telemetry.TraceID(sr.Trace),
		}
		if res.Trace == 0 {
			res.Trace = telemetry.TraceID(sent[i].Trace)
		}
		out[i] = MultiLookupResult{LookupResult: res}
	}
	return out, nil
}

// MultiPutResult is the client-side outcome of one batch sub-put.
type MultiPutResult struct {
	ID  uint64
	Err error
}

// MultiPut inserts a batch of results in one wire frame, returning
// index-aligned per-sub IDs and errors. The envelope carries the
// client's app name for all sub-ops.
func (c *Client) MultiPut(subs []PutSub) ([]MultiPutResult, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	if len(subs) > MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(subs), MaxBatch)
	}
	var reply Reply
	if err := c.roundTrip(&Request{Type: MsgMultiPut, Value: EncodePutSubs(subs)}, &reply); err != nil {
		return nil, err
	}
	srs, err := DecodePutSubReplies(reply.Value)
	if err != nil {
		return nil, fmt.Errorf("service: batch reply: %w", err)
	}
	if len(srs) != len(subs) {
		return nil, fmt.Errorf("service: batch reply has %d results for %d sub-ops", len(srs), len(subs))
	}
	out := make([]MultiPutResult, len(srs))
	for i, sr := range srs {
		if sr.Error != "" {
			out[i] = MultiPutResult{Err: fmt.Errorf("service: %s", sr.Error)}
			continue
		}
		out[i] = MultiPutResult{ID: sr.ID}
	}
	return out, nil
}
