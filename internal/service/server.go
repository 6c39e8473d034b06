package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// ServerConfig tunes the service's robustness limits. The zero value
// selects production defaults; negative values disable the
// corresponding limit.
type ServerConfig struct {
	// IdleTimeout is how long a connection may take to deliver the next
	// request's frame header, measured from the end of the previous
	// request. It evicts both idle connections and slow-loris peers that
	// trickle header bytes. 0 = 2m; < 0 = no limit.
	IdleTimeout time.Duration
	// ReadTimeout bounds reading one request body once its header has
	// arrived. 0 = 10s; < 0 = no limit.
	ReadTimeout time.Duration
	// WriteTimeout bounds one write of queued replies. 0 = 10s; < 0 = no
	// limit.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; accepts beyond the
	// cap are closed immediately. 0 = 1024; < 0 = unlimited.
	MaxConns int
	// MaxHandlers caps requests executing against the cache at once —
	// the width of the paper's AppListener threadpool (§4.1). Connections
	// beyond it queue for a slot instead of spawning unbounded work.
	// 0 = 256; < 0 = unlimited.
	MaxHandlers int
	// DrainTimeout is how long Close waits for in-flight requests to
	// finish before force-closing their connections. Idle connections are
	// closed immediately. 0 = 5s; < 0 = wait forever.
	DrainTimeout time.Duration
	// NodeID is this node's mesh identity, echoed in the MsgPeerInfo
	// handshake. Empty is fine for a standalone daemon.
	NodeID string
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 1024
	}
	if cfg.MaxHandlers == 0 {
		cfg.MaxHandlers = 256
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	return cfg
}

// Server is the Potluck background service: it owns the cache, accepts
// application connections, and serves Register/Lookup/Put/Stats
// requests. It mirrors the paper's module split (Figure 4): the accept
// loop and the bounded handler pool are the AppListener ("maintains a
// threadpool, handles the requests from upper-level applications"), the
// cache with its expiry janitor is the CacheManager, and core.Cache's
// entry store is the DataStorage.
//
// Every read and write that can block carries an idle/read/write
// deadline, the connection count and concurrent handler count are capped,
// and Close drains in-flight requests before cutting connections — the
// service degrades under slow, dead, or hostile peers instead of
// accumulating stuck goroutines.
type Server struct {
	cache *core.Cache
	cfg   ServerConfig
	// Logf receives diagnostic messages; nil silences them.
	Logf func(format string, args ...any)

	// sem is the handler pool: one slot per concurrently executing
	// request; nil when unlimited.
	sem chan struct{}

	// met holds the telemetry series; nil until Instrument. It is set
	// before Serve and read without a lock by the request path.
	met *serverMetrics

	// remote, when set, is the cluster tier: consulted on local lookup
	// misses and offered admitted puts for replication. Set before Serve
	// via SetRemote; read without a lock by the request path.
	remote RemoteTier

	// limiter rate-limits Logf on hot error paths (oversize frames,
	// deadline evictions, connection-cap rejects).
	limiter *logLimiter

	// testHookDispatch, when set, runs inside the handler slot before the
	// request executes; fault-injection tests use it to hold requests
	// in flight deterministically.
	testHookDispatch func(*Request)

	// now is the clock of the flush rule; tests substitute it.
	now func() time.Time

	// draining is set by Close and read by every connection loop, without
	// s.mu: it is on the request path.
	draining atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	wg       sync.WaitGroup
}

// connState tracks whether a connection holds requests it has read and
// not yet answered (busy) or is waiting for the next one; drain closes
// idle connections immediately and lets busy ones write their replies.
// The loop sets busy when a read returns and clears it before the next
// one blocks, once per burst.
type connState struct {
	busy atomic.Bool
}

// NewServer wraps a cache in a service with default limits.
func NewServer(cache *core.Cache) *Server {
	return NewServerConfig(cache, ServerConfig{})
}

// NewServerConfig wraps a cache in a service with explicit limits.
func NewServerConfig(cache *core.Cache, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cache:   cache,
		cfg:     cfg,
		conns:   make(map[net.Conn]*connState),
		limiter: newLogLimiter(5, 1, nil),
		now:     time.Now,
	}
	if cfg.MaxHandlers > 0 {
		s.sem = make(chan struct{}, cfg.MaxHandlers)
	}
	return s
}

// RemoteTier is the cluster mesh as the server sees it: a second tier
// consulted after the local cache. Implementations absorb their own
// failures — a dead or slow peer degrades a lookup to its local outcome
// and is never surfaced to the application as an error.
//
// The server only consults the tier for application traffic: requests
// whose App name carries PeerAppPrefix came from another mesh node and
// stay strictly local, so routing can never loop or amplify.
type RemoteTier interface {
	// RemoteMultiLookup resolves local misses (a single lookup's is a
	// one-sub batch) against their keys' owner peers. The result is
	// index-aligned with subs; a remote hit carries the owner's value and
	// decision inputs, and entries that stayed misses have Hit false.
	// The tier may keep the subs' keys (the mesh adopts remote hits under
	// them), but not the slice: the server reuses it.
	RemoteMultiLookup(subs []LookupSub) []LookupSubReply
	// ReplicatePut offers locally admitted puts for K-way replication to
	// their owner peers. It must not block beyond one peer round trip
	// (the first ack); further fan-out is fire-and-forget. As with
	// RemoteMultiLookup, the subs' keys and values may be kept, the slice
	// not.
	ReplicatePut(subs []PutSub)
}

// SetRemote installs the cluster tier. Call before Serve.
func (s *Server) SetRemote(r RemoteTier) { s.remote = r }

// Cache returns the underlying cache (for in-process inspection).
func (s *Server) Cache() *core.Cache { return s.cache }

// Config returns the limits in force (defaults applied).
func (s *Server) Config() ServerConfig { return s.cfg }

// Serve accepts connections on l until Close or ctx cancellation. It
// also runs the expiry janitor for the duration.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("service: server closed")
	}
	s.listener = l
	s.mu.Unlock()

	jctx, jcancel := context.WithCancel(ctx)
	defer jcancel()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		core.NewJanitor(s.cache).Run(jctx)
	}()

	// The watcher must exit when Serve returns for any reason (Close,
	// accept error), not only on ctx cancellation — a bare <-ctx.Done()
	// would leak one goroutine per Serve call under a long-lived ctx.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
		case <-done:
		}
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || s.isClosed() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			if s.met != nil {
				s.met.rejectedConns.Inc()
			}
			s.logfLimited("conn-cap", "service: connection cap %d reached; rejecting %v", s.cfg.MaxConns, conn.RemoteAddr())
			conn.Close()
			continue
		}
		st := &connState{}
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn, st)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting and shuts the service down gracefully: idle
// connections are closed immediately, in-flight requests get
// DrainTimeout to finish their reply, and whatever remains after that is
// force-closed. Close returns once every handler has exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	// Set before any busy flag is read: a loop that marks itself busy
	// after this load misses sees draining and stops before it dispatches.
	s.draining.Store(true)
	l := s.listener
	idle := make([]net.Conn, 0, len(s.conns))
	for c, st := range s.conns {
		if !st.busy.Load() {
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	for _, c := range idle {
		c.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	if s.cfg.DrainTimeout > 0 {
		select {
		case <-drained:
			return err
		case <-time.After(s.cfg.DrainTimeout):
			s.mu.Lock()
			n := len(s.conns)
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			if n > 0 {
				s.logf("service: drain timeout after %s; cut %d connections", s.cfg.DrainTimeout, n)
			}
		}
	}
	<-drained
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// flushBudget is the longest the loop knowingly keeps a queued reply from
// its caller to save a write: a few times what the write costs, and below
// what a k-d tree miss or a put takes.
const flushBudget = 50 * time.Microsecond

// errDraining ends a connection loop that was about to wait during Close.
var errDraining = errors.New("service: draining")

// The part of a frame a blocking read waits for; each gets one deadline.
const (
	partNone = iota
	partHeader
	partBody
)

// serverConn is one connection's loop state. The unit of socket I/O is
// the burst: one read takes in every request the peer has queued, their
// replies collect in out, and one write sends them.
type serverConn struct {
	s    *Server
	conn net.Conn
	st   *connState

	frames frameReader // reads through Read below
	// req is every request of this connection in turn, and sc the memory
	// its lookups and puts run in: handlers keep neither req nor its Key
	// (its other fields are fresh per request).
	req Request
	sc  scratch

	out    []byte    // replies encoded and not yet written
	queued int64     // how many
	held   time.Time // when the oldest of them was queued
	now    time.Time // last clock reading: the end of the last read or request
	// mean is each message type's recent mean execution time on this
	// connection; it starts at flushBudget: not yet seen is slow.
	mean  [MsgReplyPeerInfo + 1]time.Duration
	armed int   // the part of the current frame whose read deadline is set
	werr  error // why a write of out failed
}

// Read is where the loop blocks: the frame reader calls it only when no
// complete frame is buffered. Whatever is queued is written first, so no
// reply waits on the peer's next request, and the read deadline is set
// here and nowhere else — IdleTimeout for a frame's header, ReadTimeout
// for its body, once each however many reads the part takes.
func (c *serverConn) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	c.st.busy.Store(false)
	if c.s.draining.Load() {
		// Close either saw busy and is waiting for this return, or will
		// see idle and close the connection; nothing is owed either way.
		return 0, errDraining
	}
	part, d := partHeader, c.s.cfg.IdleTimeout
	if c.frames.body {
		// The header is in; the body gets its own (typically tighter)
		// budget so a peer cannot stretch one request to IdleTimeout per
		// byte.
		part, d = partBody, c.s.cfg.ReadTimeout
	}
	if c.armed != part {
		c.armed = part
		var t time.Time
		if d > 0 {
			t = time.Now().Add(d)
		}
		c.conn.SetReadDeadline(t)
	}
	n, err := c.conn.Read(p)
	c.st.busy.Store(true)
	c.now = c.s.now()
	return n, err
}

// flush writes the queued replies in one Write under the write deadline.
func (c *serverConn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	if d := c.s.cfg.WriteTimeout; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	_, c.werr = c.conn.Write(c.out)
	if m := c.s.met; m != nil {
		m.flushes.Inc()
		m.replies.Add(c.queued)
	}
	c.out, c.queued = trimBuf(c.out), 0
	return c.werr
}

// newServerConn readies one connection's loop state.
func newServerConn(s *Server, conn net.Conn, st *connState) *serverConn {
	c := &serverConn{s: s, conn: conn, st: st, sc: scratch{names: make(nameTable)}}
	c.frames = newFrameReader(c)
	for i := range c.mean {
		c.mean[i] = flushBudget
	}
	return c
}

// handleConn serves one application connection; requests on a connection
// are processed sequentially (Binder transactions are synchronous per
// caller thread) and in line, each holding a slot of the shared bounded
// handler pool while it executes.
func (s *Server) handleConn(conn net.Conn, st *connState) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := newServerConn(s, conn, st)
	for {
		c.armed = partNone
		payload, err := c.frames.next()
		if err == nil && s.draining.Load() {
			// Requests read and not dispatched are dropped (their callers
			// see a closed connection and retry elsewhere); every request
			// dispatched has its reply in out.
			c.flush()
			return
		}
		if err == nil {
			err = c.serve(payload)
		}
		switch {
		case err == nil:
			continue
		case c.werr != nil:
			s.countDroppedConn()
			s.logfLimited("write-reply", "service: write reply: %v", c.werr)
		case errors.Is(err, ErrMessageTooLarge):
			// Tell the peer why before hanging up; the stream past an
			// oversize prefix is unreadable, so the connection is done
			// either way, but the client sees a reason instead of a
			// silent disconnect.
			c.out, _ = AppendReply(c.out, &Reply{Type: MsgReplyError, Error: err.Error()})
			c.flush()
			s.countDroppedConn()
			s.logfLimited("oversize", "service: %v: %v", conn.RemoteAddr(), err)
		case isTimeout(err):
			s.countDroppedConn()
			s.logfLimited("deadline", "service: %v: evicted on deadline: %v", conn.RemoteAddr(), err)
		}
		return // disconnect, timeout, drain, or malformed frame: drop the client
	}
}

// serve executes one request and queues its reply. Queued replies are
// written first when this request would knowingly keep the oldest of them
// to flushBudget — judged from how long it has waited plus what this
// message type has recently cost here, a type not yet seen counting as
// slow — so a reply never sits behind a slow neighbour's execution.
func (c *serverConn) serve(payload []byte) error {
	var reply Reply
	err := decodeRequest(&c.req, payload, c.sc.names)
	// A type this build does not know shares a known type's slot; it
	// costs an error reply, about what the fastest of them does.
	mean := &c.mean[int(c.req.Type)%len(c.mean)]
	if err != nil {
		if c.s.met != nil {
			c.s.met.decodeErrs.Inc()
		}
		reply = Reply{Type: MsgReplyError, Error: err.Error()}
	} else {
		if len(c.out) > 0 && c.now.Sub(c.held)+*mean >= flushBudget {
			if err := c.flush(); err != nil {
				return err
			}
		}
		reply = c.s.dispatchBounded(&c.req, &c.sc)
	}
	end := c.s.now()
	*mean += (end.Sub(c.now) - *mean) / 4
	if c.now = end; len(c.out) == 0 {
		c.held = end
	}
	if c.out, err = AppendReply(c.out, &reply); err != nil {
		// An oversize reply is taken back off the buffer whole, so the
		// stream is still frame-aligned — degrade to an in-band error
		// instead of cutting a healthy connection. (A batch of large hits
		// can legitimately overflow one reply frame.)
		c.out, _ = AppendReply(c.out, &Reply{Type: MsgReplyError, Error: ErrMessageTooLarge.Error(), Trace: reply.Trace})
	}
	c.queued++
	c.sc.enc = trimBuf(c.sc.enc)
	if len(payload) > connBufSize {
		// A frame too large for the read buffer had memory of its own, and
		// what it grew here goes with it.
		c.req, c.sc = Request{}, scratch{names: c.sc.names}
	}
	return nil
}

// dispatchBounded executes one request through the handler pool. When
// instrumented it times the dispatch (handler-pool wait included — queue
// delay under load is exactly what the latency histogram is for) and
// counts the outcome.
func (s *Server) dispatchBounded(req *Request, sc *scratch) Reply {
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	if s.testHookDispatch != nil {
		s.testHookDispatch(req)
	}
	reply := s.dispatch(req, sc)
	if s.met != nil {
		dur := time.Since(start)
		ser := s.met.ops[opName(req.Type)]
		ser.lat.Observe(dur)
		if reply.Type == MsgReplyError {
			ser.errs.Inc()
		} else {
			ser.ok.Inc()
		}
		if req.Trace != 0 && s.met.spans != nil {
			// A traced request records a server-layer span under the
			// caller's trace ID (the serve stage covers handler-pool wait
			// plus cache work) and stamps the op histogram's exemplar so a
			// /metrics bucket resolves to this trace.
			s.met.spans.Record(telemetry.Span{
				Trace:       telemetry.TraceID(req.Trace),
				Start:       start.UnixNano(),
				DurationNs:  int64(dur),
				Layer:       "server",
				Function:    req.Function,
				KeyType:     req.KeyType,
				Outcome:     replyOutcome(&reply),
				Err:         reply.Error,
				Distance:    replyDistance(&reply),
				Threshold:   reply.Threshold,
				DropoutRoll: -1,
				Probes:      -1,
				Stages: []telemetry.SpanStage{{
					Name: telemetry.StageServe, DurationNs: int64(dur), Detail: opName(req.Type),
				}},
			})
			ser.lat.SetExemplar(dur, telemetry.TraceID(req.Trace))
		}
	}
	return reply
}

// replyOutcome maps a wire reply to a span outcome.
func replyOutcome(r *Reply) string {
	switch {
	case r.Type == MsgReplyError:
		return telemetry.OutcomeError
	case r.Type == MsgReplyPut:
		return telemetry.OutcomePut
	case r.Type != MsgReplyLookup:
		return "ok"
	case r.Dropout:
		return telemetry.OutcomeDropout
	case r.Hit:
		return telemetry.OutcomeHit
	default:
		return telemetry.OutcomeMiss
	}
}

// replyDistance pulls the decision distance from lookup replies (-1 for
// other ops, matching the unmeasured convention).
func replyDistance(r *Reply) float64 {
	if r.Type == MsgReplyLookup {
		return r.Distance
	}
	return -1
}

// countDroppedConn counts a connection cut mid-stream.
func (s *Server) countDroppedConn() {
	if s.met != nil {
		s.met.droppedConns.Inc()
	}
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch executes one request against the cache.
func (s *Server) dispatch(req *Request, sc *scratch) Reply {
	switch req.Type {
	case MsgRegister:
		return s.handleRegister(req)
	case MsgLookup, MsgMultiLookup:
		return s.lookup(req, sc)
	case MsgPut, MsgMultiPut:
		return s.put(req, sc)
	case MsgStats:
		return s.handleStats()
	case MsgPeerInfo:
		return s.handlePeerInfo(req)
	default:
		return Reply{Type: MsgReplyError, Error: fmt.Sprintf("unknown request type %d", req.Type)}
	}
}

func (s *Server) handleRegister(req *Request) Reply {
	specs := make([]core.KeyTypeSpec, 0, len(req.KeyTypes))
	for _, def := range req.KeyTypes {
		metric, err := vec.MetricByName(def.Metric)
		if err != nil {
			return Reply{Type: MsgReplyError, Error: err.Error()}
		}
		kind := index.Kind(def.Index)
		if kind == "" {
			kind = index.KindKDTree
		}
		specs = append(specs, core.KeyTypeSpec{
			Name:   def.Name,
			Metric: metric,
			Index:  kind,
			Dim:    int(def.Dim),
		})
	}
	if err := s.cache.RegisterFunction(req.Function, specs...); err != nil {
		return Reply{Type: MsgReplyError, Error: err.Error()}
	}
	return Reply{Type: MsgReplyOK}
}

// isByteValue restricts remote lookups to entries they can actually
// consume: in-process puts may store arbitrary values, which cannot
// cross the wire.
func isByteValue(v any) bool {
	_, ok := v.([]byte)
	return ok
}

// handlePeerInfo answers the mesh handshake with this node's identity.
func (s *Server) handlePeerInfo(req *Request) Reply {
	if _, err := DecodePeerInfo(req.Value); err != nil {
		return Reply{Type: MsgReplyError, Error: err.Error(), Trace: req.Trace}
	}
	return Reply{
		Type: MsgReplyPeerInfo,
		Value: EncodePeerInfo(&PeerInfo{
			Version: MeshProtocolVersion,
			NodeID:  s.cfg.NodeID,
		}),
		Trace: req.Trace,
	}
}

// scratch is one connection's memory for the lookups or puts of its
// current request, reused from request to request so that a lookup
// allocates nothing. A single-op frame is decoded into it as a batch of
// one. What the cache or the cluster tier may keep is never in it: put
// keys and values are decoded fresh, and a key forwarded to the tier is a
// copy.
type scratch struct {
	names     nameTable
	lookups   []LookupSub
	puts      []PutSub
	inLookups []core.BatchLookup
	inPuts    []core.BatchPut
	results   []core.BatchLookupResult
	lookupOut []LookupSubReply
	putOut    []PutSubReply
	fwd       []LookupSub // local misses offered to the cluster tier
	fwdAt     []int       // each one's index in lookups
	admitted  []PutSub    // admitted puts offered for replication
	enc       []byte      // a batch reply's encoded sub-replies
}

// lookup runs a request's lookups, a MsgLookup's one or a MsgMultiLookup's
// batch, through one cache call, and forwards their local misses to the
// cluster tier in one call. A sub-op's error is its own and never fails a
// sibling; only an undecodable batch fails the request.
func (s *Server) lookup(req *Request, sc *scratch) Reply {
	var subs []LookupSub
	var err error
	if req.Type == MsgLookup {
		// The key is req.Key's memory, into which a later batch may decode
		// its first sub: neither is read once the reply is queued.
		subs = append(sc.lookups[:0], LookupSub{Function: req.Function, KeyType: req.KeyType, Key: req.Key, Trace: req.Trace})
	} else if subs, err = decodeLookupSubs(sc.lookups, req.Value, sc.names); err != nil {
		return Reply{Type: MsgReplyError, Error: err.Error(), Trace: req.Trace}
	}
	in := sc.inLookups[:0]
	for _, sub := range subs {
		// The Accept veto makes an entry this caller can never receive a
		// true miss: no hit counted, no access-frequency or importance
		// credit for the entry.
		in = append(in, core.BatchLookup{Function: sub.Function, KeyType: sub.KeyType, Key: sub.Key,
			Opts: core.LookupOptions{Accept: isByteValue, Trace: telemetry.TraceID(sub.Trace)}})
	}
	// A local miss from an application falls through to the cluster tier;
	// dropouts propagate as real misses (the quality control must stay
	// honest across nodes), and peer-originated lookups never re-fan (the
	// sender already routed to an owner).
	remote := s.remote != nil && !IsPeerApp(req.App)
	out, fwd, fwdAt := sc.lookupOut[:0], sc.fwd[:0], sc.fwdAt[:0]
	results := s.cache.MultiLookupInto(sc.results, in)
	for i := range results {
		r := &results[i] // not a copy: a result carries an entry snapshot
		if r.Err != nil {
			out = append(out, LookupSubReply{Error: r.Err.Error(), Trace: subs[i].Trace})
			continue
		}
		// Echo the trace the cache recorded under (the request's ID, or one
		// the cache minted for a sampled lookup) so the caller can resolve
		// it against /trace/spans.
		sr := LookupSubReply{Hit: r.Hit, Dropout: r.Dropout, Distance: r.Distance, Threshold: r.Threshold,
			MissedAt: r.MissedAt.UnixNano(), Trace: uint64(r.Trace)}
		if r.Hit {
			sr.Value = r.Value.([]byte)
		} else if !r.Dropout && remote {
			// The mesh hop runs under the cache's trace, or the caller's
			// where the cache recorded none. The tier may keep the key, and
			// sub.Key is scratch: it gets a copy.
			trace := sr.Trace
			if trace == 0 {
				trace = subs[i].Trace
			}
			fwd = append(fwd, LookupSub{Function: subs[i].Function, KeyType: subs[i].KeyType, Key: subs[i].Key.Clone(), Trace: trace})
			fwdAt = append(fwdAt, i)
		}
		out = append(out, sr)
	}
	if len(fwd) > 0 {
		for j, rr := range s.remote.RemoteMultiLookup(fwd) {
			if rr.Hit {
				// MissedAt stays the local miss time: the caller's cost
				// accounting is against this node's clock.
				sr := &out[fwdAt[j]]
				sr.Hit, sr.Value, sr.Distance, sr.Threshold = true, rr.Value, rr.Distance, rr.Threshold
			}
		}
	}
	sc.lookups, sc.inLookups, sc.results, sc.lookupOut, sc.fwd, sc.fwdAt = subs, in, results, out, fwd, fwdAt
	// Only the reply tells the frame types apart.
	if req.Type == MsgMultiLookup {
		sc.enc = appendLookupSubReplies(sc.enc[:0], out)
		return Reply{Type: MsgReplyMultiLookup, Value: sc.enc, Trace: req.Trace}
	}
	if r := &out[0]; r.Error == "" {
		return Reply{Type: MsgReplyLookup, Hit: r.Hit, Dropout: r.Dropout, Value: r.Value,
			Distance: r.Distance, Threshold: r.Threshold, MissedAt: r.MissedAt, Trace: r.Trace}
	}
	return Reply{Type: MsgReplyError, Error: out[0].Error, Trace: out[0].Trace}
}

// put runs a request's puts, a MsgPut's one or a MsgMultiPut's batch,
// through one cache call, and offers the admitted ones to the cluster
// tier in one call.
func (s *Server) put(req *Request, sc *scratch) Reply {
	var subs []PutSub
	var err error
	if req.Type == MsgPut {
		subs = append(sc.puts[:0], PutSub{Function: req.Function, Keys: req.Keys, Value: req.Value,
			Cost: req.Cost, Size: req.Size, TTL: req.TTL, Trace: req.Trace})
	} else if subs, err = decodePutSubs(sc.puts, req.Value, sc.names); err != nil {
		return Reply{Type: MsgReplyError, Error: err.Error(), Trace: req.Trace}
	}
	in := sc.inPuts[:0]
	for _, sub := range subs {
		in = append(in, core.BatchPut{Function: sub.Function, Req: core.PutRequest{
			Keys: sub.Keys, Value: sub.Value, Cost: time.Duration(sub.Cost), Size: int(sub.Size),
			TTL: time.Duration(sub.TTL), App: req.App, Trace: telemetry.TraceID(sub.Trace),
		}})
	}
	// An admitted application put is offered to the cluster tier for
	// K-way replication; peer-originated puts (replication traffic) stay
	// local or the mesh would re-replicate its own writes forever.
	remote := s.remote != nil && !IsPeerApp(req.App)
	out, admitted := sc.putOut[:0], sc.admitted[:0]
	for i, r := range s.cache.MultiPut(in) {
		if r.Err != nil {
			out = append(out, PutSubReply{Error: r.Err.Error(), Trace: subs[i].Trace})
			continue
		}
		out = append(out, PutSubReply{ID: uint64(r.ID), Trace: subs[i].Trace})
		if remote {
			admitted = append(admitted, subs[i])
		}
	}
	if len(admitted) > 0 {
		s.remote.ReplicatePut(admitted)
	}
	sc.puts, sc.inPuts, sc.putOut, sc.admitted = subs, in, out, admitted
	if req.Type == MsgMultiPut {
		sc.enc = appendPutSubReplies(sc.enc[:0], out)
		return Reply{Type: MsgReplyMultiPut, Value: sc.enc, Trace: req.Trace}
	}
	if out[0].Error == "" {
		return Reply{Type: MsgReplyPut, ID: out[0].ID, Trace: out[0].Trace}
	}
	return Reply{Type: MsgReplyError, Error: out[0].Error, Trace: out[0].Trace}
}

func (s *Server) handleStats() Reply {
	st := s.cache.Stats()
	return Reply{Type: MsgReplyStats, Stats: StatsPayload{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Dropouts:      st.Dropouts,
		Puts:          st.Puts,
		Evictions:     st.Evictions,
		Expirations:   st.Expirations,
		Entries:       int64(st.Entries),
		Bytes:         st.Bytes,
		SavedComputeN: int64(st.SavedCompute),
	}}
}

// ListenAndServe listens on the given network/address ("unix" +
// socket path, or "tcp" + host:port) and serves until ctx is cancelled.
func (s *Server) ListenAndServe(ctx context.Context, network, addr string) error {
	l, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}
