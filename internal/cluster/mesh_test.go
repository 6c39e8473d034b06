package cluster

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// node is one mesh member under test: a live server on a Unix socket.
type node struct {
	srv   *service.Server
	cache *core.Cache
	sock  string
}

func startNode(t *testing.T, nodeID string) *node {
	t.Helper()
	cache := core.New(core.Config{DisableDropout: true, Tuner: core.TunerConfig{WarmupZ: 1}})
	srv := service.NewServerConfig(cache, service.ServerConfig{NodeID: nodeID})
	sock := filepath.Join(t.TempDir(), nodeID+".sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return &node{srv: srv, cache: cache, sock: sock}
}

// register registers fn with a single "feat" key type on the node.
func (n *node) register(t *testing.T, fn string) {
	t.Helper()
	if err := n.cache.RegisterFunction(fn, core.KeyTypeSpec{Name: "feat"}); err != nil {
		t.Fatal(err)
	}
}

// dialApp opens an application client against the node.
func dialApp(t *testing.T, n *node, app string) *service.Client {
	t.Helper()
	cl, err := service.DialConfig("unix", n.sock, app, service.ClientConfig{
		RequestTimeout: 5 * time.Second, DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// newMesh builds a mesh for self with the given peers and installs it on
// self's server.
func newMesh(t *testing.T, self *node, selfID string, replicas int, peers ...PeerSpec) *Mesh {
	t.Helper()
	m, err := New(Config{
		NodeID:           selfID,
		Local:            self.cache,
		Peers:            peers,
		Replicas:         replicas,
		FailureThreshold: 1,
		Cooldown:         50 * time.Millisecond,
		Client: service.ClientConfig{
			RequestTimeout: 2 * time.Second, DialTimeout: 500 * time.Millisecond,
		},
		HandshakeInterval: time.Hour, // rounds are driven explicitly in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	self.srv.SetRemote(m)
	return m
}

func peerOf(n *node, id string) PeerSpec {
	return PeerSpec{ID: id, Network: "unix", Addr: n.sock}
}

// TestRemoteHitAndAdopt is the mesh's core promise: a local miss is
// resolved by the owner peer and the value is adopted into the local
// tier so the next lookup stays local.
func TestRemoteHitAndAdopt(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	a.register(t, "recog")
	b.register(t, "recog")
	m := newMesh(t, a, "A", 2, peerOf(b, "B"))

	key := vec.Vector{1, 2}
	if _, err := b.cache.Put("recog", core.PutRequest{
		Keys: map[string]vec.Vector{"feat": key}, Value: []byte("shared"),
	}); err != nil {
		t.Fatal(err)
	}

	cl := dialApp(t, a, "lens")
	res, err := cl.Lookup("recog", "feat", key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || string(res.Value) != "shared" {
		t.Fatalf("remote lookup = %+v, want hit with %q", res, "shared")
	}
	if got := m.remoteHits.Load(); got != 1 {
		t.Fatalf("remote hits = %d, want 1", got)
	}

	// The adopted copy answers the second lookup locally.
	res, err = cl.Lookup("recog", "feat", key)
	if err != nil || !res.Hit {
		t.Fatalf("post-adopt lookup = %+v, %v, want local hit", res, err)
	}
	if got := m.remoteHits.Load(); got != 1 {
		t.Fatalf("remote hits after adoption = %d, want still 1 (second lookup must be local)", got)
	}
}

// TestPeerLookupNeverFansOut pins the loop-prevention contract: a
// request whose App carries the mesh prefix is answered strictly from
// the local tier, and no frame reaches any peer.
func TestPeerLookupNeverFansOut(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	a.register(t, "recog")
	b.register(t, "recog")
	m := newMesh(t, a, "A", 2, peerOf(b, "B"))

	key := vec.Vector{1, 2}
	if _, err := b.cache.Put("recog", core.PutRequest{
		Keys: map[string]vec.Vector{"feat": key}, Value: []byte("shared"),
	}); err != nil {
		t.Fatal(err)
	}

	cl := dialApp(t, a, service.PeerAppPrefix+"elsewhere")
	res, err := cl.Lookup("recog", "feat", key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("peer-originated lookup consulted the mesh: routing can loop")
	}
	if st := m.Peers()[0]; st.Reqs != 0 {
		t.Fatalf("peer B saw %d frames from a peer-originated request, want 0", st.Reqs)
	}
	// Peer-originated puts must not re-replicate either.
	if _, err := cl.Put("recog", map[string]vec.Vector{"feat": {9, 9}}, []byte("rep"), service.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := m.Peers()[0]; st.Reqs != 0 {
		t.Fatalf("peer B saw %d frames from a peer-originated put, want 0", st.Reqs)
	}
}

// TestBreakerDemotionReroutes kills the primary owner and checks the
// lookup falls through to the next owner, then that the dead peer is
// skipped outright once its breaker is open — for single lookups and
// for a batch, whose misses ride the dead primary's one frame while a
// second namespace's miss goes to the survivor in parallel.
func TestBreakerDemotionReroutes(t *testing.T) {
	// namespace picks a function whose rendezvous order tries dead B
	// before live C (bFirst) or the other way round.
	namespace := func(bFirst bool) string {
		for i := 0; ; i++ {
			cand := fmt.Sprintf("fn%d", i)
			var bi, ci int
			for idx, id := range Owners([]string{"A", "B", "C"}, cand, "feat", 3) {
				switch id {
				case "B":
					bi = idx
				case "C":
					ci = idx
				}
			}
			if (bi < ci) == bFirst {
				return cand
			}
		}
	}
	fnB, fnC := namespace(true), namespace(false)
	type probe struct {
		fn  string
		key vec.Vector
	}
	cached := []probe{{fnB, vec.Vector{3, 4}}, {fnB, vec.Vector{30, 40}}, {fnC, vec.Vector{5, 6}}}
	fresh := []probe{{fnB, vec.Vector{103, 4}}, {fnC, vec.Vector{105, 6}}} // cached nowhere

	for _, tc := range []struct {
		name string
		// lookup returns each probe's hit value ("" on a miss).
		lookup func(cl *service.Client, probes []probe) ([]string, error)
	}{
		{"lookup", func(cl *service.Client, probes []probe) ([]string, error) {
			vals := make([]string, len(probes))
			for i, pr := range probes {
				res, err := cl.Lookup(pr.fn, "feat", pr.key)
				if err != nil {
					return nil, err
				}
				if res.Hit {
					vals[i] = string(res.Value)
				}
			}
			return vals, nil
		}},
		{"multilookup", func(cl *service.Client, probes []probe) ([]string, error) {
			subs := make([]service.LookupSub, len(probes))
			for i, pr := range probes {
				subs[i] = service.LookupSub{Function: pr.fn, KeyType: "feat", Key: pr.key}
			}
			out, err := cl.MultiLookup(subs)
			if err != nil {
				return nil, err
			}
			vals := make([]string, len(out))
			for i, r := range out {
				if r.Err != nil {
					return nil, r.Err
				}
				if r.Hit {
					vals[i] = string(r.Value)
				}
			}
			return vals, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, c := startNode(t, "A"), startNode(t, "C")
			deadSock := filepath.Join(t.TempDir(), "dead.sock") // never listening
			for _, fn := range []string{fnB, fnC} {
				a.register(t, fn)
				c.register(t, fn)
			}
			m := newMesh(t, a, "A", 3,
				PeerSpec{ID: "B", Network: "unix", Addr: deadSock},
				peerOf(c, "C"))
			for i, pr := range cached {
				if _, err := c.cache.Put(pr.fn, core.PutRequest{
					Keys: map[string]vec.Vector{"feat": pr.key}, Value: []byte(fmt.Sprintf("survivor%d", i)),
				}); err != nil {
					t.Fatal(err)
				}
			}
			peerB := func() PeerState {
				for _, st := range m.Peers() {
					if st.ID == "B" {
						return st
					}
				}
				t.Fatal("peer B missing")
				return PeerState{}
			}

			cl := dialApp(t, a, "lens")
			vals, err := tc.lookup(cl, cached)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if want := fmt.Sprintf("survivor%d", i); v != want {
					t.Fatalf("probe %d with dead primary = %q, want hit %q from the surviving owner", i, v, want)
				}
			}
			if st := peerB(); st.Errs != 1 || st.Breaker != service.BreakerOpen {
				t.Fatalf("dead peer errors = %d, breaker = %s; want 1 and open (threshold trips the breaker)", st.Errs, st.Breaker)
			}

			// With the breaker open the dead peer costs nothing: local misses
			// route straight to the survivor.
			if _, err := tc.lookup(cl, fresh); err != nil {
				t.Fatal(err)
			}
			if st := peerB(); st.Reqs != 1 {
				t.Fatalf("dead peer frames = %d, want 1 (open breaker must refuse the rest)", st.Reqs)
			}
		})
	}
}

// TestReplicationSyncFirstAck checks the put path: by the time an
// application put returns, the primary owner peer already holds the
// replica (first ack is synchronous).
func TestReplicationSyncFirstAck(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	a.register(t, "recog")
	b.register(t, "recog")
	newMesh(t, a, "A", 2, peerOf(b, "B"))

	cl := dialApp(t, a, "lens")
	key := vec.Vector{5, 6}
	if _, err := cl.Put("recog", map[string]vec.Vector{"feat": key}, []byte("dup"), service.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := b.cache.LookupOpts("recog", "feat", key, core.LookupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("replica missing on the primary owner right after the put returned")
	}
}

// TestReplicationAsyncSecondary checks the K-way fan-out beyond the
// first ack: with three members and K=3, the secondary owner receives
// its copy via the async queue.
func TestReplicationAsyncSecondary(t *testing.T) {
	a, b, c := startNode(t, "A"), startNode(t, "B"), startNode(t, "C")
	for _, n := range []*node{a, b, c} {
		n.register(t, "recog")
	}
	m := newMesh(t, a, "A", 3, peerOf(b, "B"), peerOf(c, "C"))
	m.Start()

	cl := dialApp(t, a, "lens")
	key := vec.Vector{7, 8}
	if _, err := cl.Put("recog", map[string]vec.Vector{"feat": key}, []byte("dup"), service.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range []*node{b, c} {
		for {
			res, err := n.cache.LookupOpts("recog", "feat", key, core.LookupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Hit {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("replica never arrived on a secondary owner")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestBatchLookupOneFramePerOwner pins the batching contract: a
// MultiLookup whose misses all route to one owner costs that owner
// exactly one wire frame.
func TestBatchLookupOneFramePerOwner(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	a.register(t, "recog")
	b.register(t, "recog")
	m := newMesh(t, a, "A", 2, peerOf(b, "B"))

	keys := []vec.Vector{{1, 0}, {2, 0}, {30, 0}}
	for _, k := range keys {
		if _, err := b.cache.Put("recog", core.PutRequest{
			Keys: map[string]vec.Vector{"feat": k}, Value: []byte(fmt.Sprintf("v%v", k[0])),
		}); err != nil {
			t.Fatal(err)
		}
	}

	cl := dialApp(t, a, "lens")
	subs := make([]service.LookupSub, len(keys))
	for i, k := range keys {
		subs[i] = service.LookupSub{Function: "recog", KeyType: "feat", Key: k}
	}
	out, err := cl.MultiLookup(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Err != nil || !r.Hit {
			t.Fatalf("sub %d = %+v, want remote hit", i, r)
		}
	}
	if st := m.Peers()[0]; st.Reqs != 1 {
		t.Fatalf("owner saw %d frames for a 3-miss batch, want 1", st.Reqs)
	}
	if got := m.remoteHits.Load(); got != int64(len(keys)) {
		t.Fatalf("remote hits = %d, want %d", got, len(keys))
	}
}

// TestHandshakeIdentifiesPeers drives one handshake round and checks
// the peer's version and identity land, plus the degenerate single-node
// mesh behaves as a no-op tier.
func TestHandshakeIdentifiesPeers(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	m := newMesh(t, a, "A", 2, peerOf(b, "B"))
	m.handshakeRound()
	st := m.Peers()[0]
	if st.Legacy {
		t.Fatal("current-build peer marked legacy")
	}
	if st.Version != service.MeshProtocolVersion {
		t.Fatalf("handshake version = %d, want %d", st.Version, service.MeshProtocolVersion)
	}

	solo, err := New(Config{NodeID: "S", Local: a.cache})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if r := solo.RemoteMultiLookup([]service.LookupSub{{Function: "recog", KeyType: "feat", Key: vec.Vector{1}}}); r[0].Hit {
		t.Fatal("single-node mesh reported a remote hit")
	}
	solo.ReplicatePut([]service.PutSub{{Function: "recog"}}) // must be a no-op, not a panic
}

// TestHandshakeLegacyPeer runs the handshake against a stub that
// answers every frame with the old server's "unknown request type"
// error: the peer must be marked legacy AND healthy (the in-band error
// proves liveness), staying in the lookup rotation.
func TestHandshakeLegacyPeer(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "legacy.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					if _, err := service.ReadFrame(c); err != nil {
						return
					}
					reply := &service.Reply{Type: service.MsgReplyError, Error: "unknown request type 8"}
					if err := service.WriteFrame(c, service.EncodeReply(reply)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	a := startNode(t, "A")
	m := newMesh(t, a, "A", 2, PeerSpec{ID: "L", Network: "unix", Addr: sock})
	m.handshakeRound()
	st := m.Peers()[0]
	if !st.Legacy {
		t.Fatalf("legacy stub not recognized: %+v", st)
	}
	if st.Breaker != service.BreakerClosed {
		t.Fatalf("legacy peer breaker = %s, want closed (it answered, it is alive)", st.Breaker)
	}
}

// TestMeshTraceSpans checks the acceptance criterion's observability
// half: a traced remote-hit lookup leaves server-, and mesh-layer spans
// under ONE trace ID, with the mesh span naming the owner peer.
func TestMeshTraceSpans(t *testing.T) {
	a, b := startNode(t, "A"), startNode(t, "B")
	a.register(t, "recog")
	b.register(t, "recog")
	m := newMesh(t, a, "A", 2, peerOf(b, "B"))

	tel := telemetry.New()
	a.srv.Instrument(tel)
	m.Instrument(tel)

	key := vec.Vector{1, 2}
	if _, err := b.cache.Put("recog", core.PutRequest{
		Keys: map[string]vec.Vector{"feat": key}, Value: []byte("shared"),
	}); err != nil {
		t.Fatal(err)
	}

	cl := dialApp(t, a, "lens")
	id := telemetry.NewTraceID()
	res, err := cl.LookupTraced("recog", "feat", key, id)
	if err != nil || !res.Hit {
		t.Fatalf("traced lookup = %+v, %v, want remote hit", res, err)
	}

	layers := map[string]telemetry.Span{}
	for _, sp := range tel.Spans.Find(id) {
		layers[sp.Layer] = sp
	}
	for _, want := range []string{"server", "mesh"} {
		if _, ok := layers[want]; !ok {
			t.Fatalf("trace %s missing %q-layer span; got layers %v", id, want, layers)
		}
	}
	mesh := layers["mesh"]
	if mesh.Outcome != telemetry.OutcomeHit {
		t.Errorf("mesh span outcome = %s, want hit", mesh.Outcome)
	}
	if len(mesh.Stages) != 1 || mesh.Stages[0].Name != telemetry.StagePeer || mesh.Stages[0].Detail != "B" {
		t.Errorf("mesh span stages = %+v, want one peer stage naming B", mesh.Stages)
	}
	// The breaker metrics surface per peer.
	if m.Peers()[0].Hits != 1 {
		t.Errorf("peer hit counter = %d, want 1", m.Peers()[0].Hits)
	}
}
