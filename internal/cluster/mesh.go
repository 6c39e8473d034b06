package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// PeerSpec identifies one remote mesh member: its rendezvous identity
// and where to dial it.
type PeerSpec struct {
	// ID is the peer's node ID — the string hashed for ownership. Every
	// mesh member must agree on every other member's ID or their owner
	// assignments diverge.
	ID string
	// Network/Addr locate the peer's service socket ("unix" + path or
	// "tcp" + host:port).
	Network string
	Addr    string
}

// Config assembles a Mesh. NodeID and Local are required; everything
// else has workable defaults.
type Config struct {
	// NodeID is this node's rendezvous identity.
	NodeID string
	// Local is the node's own cache, used to adopt remote hits.
	Local *core.Cache
	// Peers lists the other mesh members. Empty degenerates the mesh to
	// a single-node cluster: every namespace is self-owned,
	// RemoteMultiLookup always misses, ReplicatePut is a no-op.
	Peers []PeerSpec
	// Replicas is K, the owner count per namespace (self included when
	// self ranks top-K). 0 = 2.
	Replicas int
	// FailureThreshold/Cooldown parameterize each peer's circuit
	// breaker; zeros take the Breaker defaults (3 failures, 5s).
	FailureThreshold int
	Cooldown         time.Duration
	// AdoptTTL bounds the validity of adopted remote hits; 0 uses the
	// local cache's default.
	AdoptTTL time.Duration
	// Client tunes the per-peer clients. For a latency-sensitive mesh
	// hop, MaxAttempts is forced to 1 — the breaker owns retry policy,
	// not the client.
	Client service.ClientConfig
	// ReplicaQueueDepth bounds the async replication queue (puts beyond
	// the first ack); overflow is dropped and counted. 0 = 1024.
	ReplicaQueueDepth int
	// ReplicaWorkers drains the async queue. 0 = 2.
	ReplicaWorkers int
	// HandshakeInterval paces the identity/liveness loop that exchanges
	// MsgPeerInfo with peers that are unidentified or demoted. 0 = 5s.
	HandshakeInterval time.Duration
	// Logf receives diagnostics (membership warnings); nil silences.
	Logf func(format string, args ...any)
}

// peer is one remote member's runtime state: a lazily-dialed pipelined
// client, the breaker guarding it, and the handshake-learned identity.
type peer struct {
	spec   PeerSpec
	client *service.Client
	br     *service.Breaker

	mu     sync.Mutex
	info   *service.PeerInfo
	legacy bool // answered the handshake with "unknown request type"

	reqs atomic.Int64 // frames sent (lookups, puts, handshakes)
	hits atomic.Int64 // sub-lookups answered with a hit
	errs atomic.Int64 // transport failures (breaker-reported)
}

// identified reports whether the handshake has resolved this peer (a
// real PeerInfo or a legacy verdict).
func (p *peer) identified() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.info != nil || p.legacy
}

// repTask is one async replication unit: a batch of puts bound for one
// peer.
type repTask struct {
	peerID string
	subs   []service.PutSub
}

// Mesh implements service.RemoteTier over a static peer set. All maps
// are built at New and immutable afterwards; per-peer state is
// internally synchronized, so every method is safe for concurrent use.
type Mesh struct {
	cfg     Config
	members []string // self + peer IDs, sorted (rendezvous input)
	peers   map[string]*peer
	order   []string // peer IDs, sorted, for deterministic iteration

	repCh chan repTask

	remoteHits   atomic.Int64
	remoteMisses atomic.Int64
	adoptErrs    atomic.Int64
	repDrops     atomic.Int64 // async queue overflow, in sub-puts
	repSkips     atomic.Int64 // replication skipped by an open breaker

	tel atomic.Pointer[telemetry.Telemetry]

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates the configuration and builds the mesh. Peer clients are
// lazy — nothing is dialed until the first frame — so the daemon boots
// cleanly while its peers are still coming up.
func New(cfg Config) (*Mesh, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: Local cache is required")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: Replicas must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.ReplicaQueueDepth <= 0 {
		cfg.ReplicaQueueDepth = 1024
	}
	if cfg.ReplicaWorkers <= 0 {
		cfg.ReplicaWorkers = 2
	}
	if cfg.HandshakeInterval <= 0 {
		cfg.HandshakeInterval = 5 * time.Second
	}
	// The breaker owns failure policy: one attempt per frame, so a dead
	// peer costs one timeout, not MaxAttempts of them.
	cfg.Client.MaxAttempts = -1 // withDefaults clamps < 1 to exactly one attempt

	m := &Mesh{
		cfg:   cfg,
		peers: make(map[string]*peer, len(cfg.Peers)),
		repCh: make(chan repTask, cfg.ReplicaQueueDepth),
		stop:  make(chan struct{}),
	}
	m.members = append(m.members, cfg.NodeID)
	for _, spec := range cfg.Peers {
		if spec.ID == "" || spec.Addr == "" {
			return nil, fmt.Errorf("cluster: peer needs ID and Addr, got %+v", spec)
		}
		if spec.Network == "" {
			spec.Network = "unix"
		}
		if spec.ID == cfg.NodeID {
			return nil, fmt.Errorf("cluster: peer %q duplicates this node's ID", spec.ID)
		}
		if _, dup := m.peers[spec.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", spec.ID)
		}
		m.peers[spec.ID] = &peer{
			spec: spec,
			// The App prefix marks every frame this node sends as mesh
			// traffic: the receiving server answers from its local tier
			// only and never re-replicates, so routing cannot loop. The
			// marking rides in the request envelope, so it survives the
			// client's transparent redials.
			client: service.NewLazyClient(spec.Network, spec.Addr,
				service.PeerAppPrefix+cfg.NodeID, cfg.Client),
			br: service.NewBreaker(cfg.FailureThreshold, cfg.Cooldown, nil),
		}
		m.members = append(m.members, spec.ID)
		m.order = append(m.order, spec.ID)
	}
	sort.Strings(m.members)
	sort.Strings(m.order)
	return m, nil
}

// NodeID returns this node's rendezvous identity.
func (m *Mesh) NodeID() string { return m.cfg.NodeID }

// Members returns the full member list (self included), sorted.
func (m *Mesh) Members() []string { return append([]string(nil), m.members...) }

// Owners returns the namespace's owner IDs in preference order.
func (m *Mesh) Owners(function, keyType string) []string {
	return Owners(m.members, function, keyType, m.cfg.Replicas)
}

// PeerState summarizes one peer for diagnostics.
type PeerState struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Breaker string `json:"breaker"`
	Legacy  bool   `json:"legacy"`
	// Version is the handshake-reported protocol generation; 0 until
	// identified (or forever, for a legacy peer).
	Version uint32 `json:"version"`
	Reqs    int64  `json:"requests"`
	Hits    int64  `json:"hits"`
	Errs    int64  `json:"errors"`
}

// Peers snapshots every peer's health, sorted by ID.
func (m *Mesh) Peers() []PeerState {
	out := make([]PeerState, 0, len(m.order))
	for _, id := range m.order {
		p := m.peers[id]
		st := PeerState{
			ID:      id,
			Addr:    p.spec.Network + "://" + p.spec.Addr,
			Breaker: p.br.State(),
			Reqs:    p.reqs.Load(),
			Hits:    p.hits.Load(),
			Errs:    p.errs.Load(),
		}
		p.mu.Lock()
		st.Legacy = p.legacy
		if p.info != nil {
			st.Version = p.info.Version
		}
		p.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Start launches the background machinery: the async replication
// workers and the handshake/liveness loop. Call once; Close stops it.
func (m *Mesh) Start() {
	for i := 0; i < m.cfg.ReplicaWorkers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.stop:
					return
				case t := <-m.repCh:
					m.sendPuts(m.peers[t.peerID], t.subs)
				}
			}
		}()
	}
	if len(m.peers) > 0 {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(m.cfg.HandshakeInterval)
			defer t.Stop()
			m.handshakeRound()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.handshakeRound()
				}
			}
		}()
	}
}

// Close stops the background goroutines and closes every peer client.
// Queued async replications are abandoned — they were fire-and-forget by
// contract.
func (m *Mesh) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	for _, p := range m.peers {
		p.client.Close()
	}
}

// handshakeRound exchanges MsgPeerInfo with every peer that is either
// unidentified or demoted. For a demoted peer the handshake doubles as
// the breaker's half-open probe, so a restarted peer is re-admitted on
// the mesh's own schedule even when no application traffic routes to it.
func (m *Mesh) handshakeRound() {
	for _, id := range m.order {
		p := m.peers[id]
		if p.identified() && p.br.State() == service.BreakerClosed {
			continue
		}
		if !p.br.Allow() {
			continue
		}
		p.reqs.Add(1)
		info, err := p.client.PeerInfo(service.PeerInfo{
			Version:  service.MeshProtocolVersion,
			NodeID:   m.cfg.NodeID,
			Replicas: uint32(m.cfg.Replicas),
		})
		if err != nil && isLegacyReply(err) {
			// The peer answered — it is alive, just older than the mesh
			// protocol. It still serves lookups and puts over the shared
			// envelope, so it stays in the rotation.
			p.br.Report(nil)
			p.mu.Lock()
			first := !p.legacy
			p.legacy = true
			p.mu.Unlock()
			if first {
				m.logf("cluster: peer %s is a legacy build (no mesh handshake); routing plain frames", id)
			}
			continue
		}
		p.br.Report(err)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		p.mu.Lock()
		prev := p.info
		p.info = &info
		p.legacy = false
		p.mu.Unlock()
		if info.NodeID != "" && info.NodeID != id && prev == nil {
			m.logf("cluster: peer at %s identifies as %q but is configured as %q — member lists disagree, ownership will diverge",
				p.spec.Addr, info.NodeID, id)
		}
		if info.Replicas != 0 && int(info.Replicas) != m.cfg.Replicas && prev == nil {
			m.logf("cluster: peer %s runs replicas=%d, this node %d — asymmetric replication", id, info.Replicas, m.cfg.Replicas)
		}
	}
}

// isLegacyReply recognizes an old server's in-band answer to a message
// type it does not know. The reply arrives on a healthy connection, so
// it proves liveness.
func isLegacyReply(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown request type")
}

func (m *Mesh) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// RemoteMultiLookup resolves local misses — one from a single lookup, or
// a batch — against their namespaces' owner peers. Subs are grouped by
// their first admitted owner in rendezvous order, so each owner peer
// receives ONE MultiLookup frame (frames to distinct peers go in
// parallel), and each frame costs a single breaker Allow/Report. An
// owner's answer, hit or miss, is final; a frame that fails falls its
// subs through to their next admitted owner in a further round, so a
// freshly-dead primary degrades a lookup, never fails it. Hits are
// adopted into the local tier in one batch put.
func (m *Mesh) RemoteMultiLookup(subs []service.LookupSub) []service.LookupSubReply {
	out := make([]service.LookupSubReply, len(subs))
	if len(m.peers) == 0 {
		return out
	}
	pending := make([]int, len(subs))
	for i := range pending {
		pending[i] = i
	}
	// skip holds the peers this batch no longer routes to: refused by
	// their breaker, or their frame failed. Every round adds the peer of
	// each failed frame, so the rounds end.
	skip := make(map[string]bool)
	for len(pending) > 0 {
		groups := m.routeLookups(subs, pending, skip)
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			failures []int
		)
		for id, idxs := range groups {
			wg.Add(1)
			go func(id string, idxs []int) {
				defer wg.Done()
				if !m.lookupFrame(m.peers[id], subs, idxs, out) {
					mu.Lock()
					skip[id] = true
					failures = append(failures, idxs...)
					mu.Unlock()
				}
			}(id, idxs)
		}
		wg.Wait()
		pending = failures
	}
	var adopt []core.BatchPut
	for i, r := range out {
		if !r.Hit {
			continue
		}
		adopt = append(adopt, core.BatchPut{Function: subs[i].Function, Req: core.PutRequest{
			Keys:  map[string]vec.Vector{subs[i].KeyType: subs[i].Key},
			Value: r.Value,
			TTL:   m.cfg.AdoptTTL,
			App:   "mesh-adopt",
			Trace: telemetry.TraceID(subs[i].Trace),
		}})
	}
	m.adopt(adopt)
	return out
}

// routeLookups groups the pending subs by their first owner peer that is
// not skipped and whose breaker admits a frame. Admission is decided at
// most once per peer per round: Allow may consume the breaker's single
// half-open probe slot, so it is only called when a sub is about to be
// routed to that peer — every admitted peer is guaranteed a frame and
// therefore a Report. A refused peer is skipped for the rest of the
// batch; a sub with no owner left stays a miss.
func (m *Mesh) routeLookups(subs []service.LookupSub, pending []int, skip map[string]bool) map[string][]int {
	groups := make(map[string][]int)
	for _, i := range pending {
		for _, id := range m.Owners(subs[i].Function, subs[i].KeyType) {
			if id == m.cfg.NodeID || skip[id] {
				continue
			}
			if _, admitted := groups[id]; !admitted && !m.peers[id].br.Allow() {
				skip[id] = true
				continue
			}
			groups[id] = append(groups[id], i)
			break
		}
	}
	return groups
}

// lookupFrame sends the subs at idxs to p in one MultiLookup frame under
// p's breaker and writes their hits into out (each frame owns disjoint
// indexes, so no lock is needed). It reports false when the frame
// failed, after recording an error span per sub.
func (m *Mesh) lookupFrame(p *peer, subs []service.LookupSub, idxs []int, out []service.LookupSubReply) bool {
	fwd := make([]service.LookupSub, len(idxs))
	for j, i := range idxs {
		fwd[j] = subs[i]
	}
	start := time.Now()
	p.reqs.Add(1)
	rres, err := p.client.MultiLookup(fwd)
	p.br.Report(err)
	if err != nil {
		p.errs.Add(1)
		for _, i := range idxs {
			m.recordSpan(start, subs[i].Trace, subs[i].Function, subs[i].KeyType,
				p.spec.ID, telemetry.OutcomeError, err.Error(), -1, 0)
		}
		return false
	}
	for j, r := range rres {
		i := idxs[j]
		if r.Err != nil || !r.Hit {
			m.remoteMisses.Add(1)
			m.recordSpan(start, subs[i].Trace, subs[i].Function, subs[i].KeyType,
				p.spec.ID, telemetry.OutcomeMiss, "", r.Distance, r.Threshold)
			continue
		}
		p.hits.Add(1)
		m.remoteHits.Add(1)
		m.recordSpan(start, subs[i].Trace, subs[i].Function, subs[i].KeyType,
			p.spec.ID, telemetry.OutcomeHit, "", r.Distance, r.Threshold)
		out[i] = service.LookupSubReply{
			Hit:       true,
			Value:     r.Value,
			Distance:  r.Distance,
			Threshold: r.Threshold,
			Trace:     subs[i].Trace,
		}
	}
	return true
}

// adopt inserts remote hits into the local tier, best-effort: a refused
// adoption (barred app, capacity) never affects the lookup that won.
func (m *Mesh) adopt(batch []core.BatchPut) {
	if len(batch) == 0 {
		return
	}
	for _, r := range m.cfg.Local.MultiPut(batch) {
		if r.Err != nil {
			m.adoptErrs.Add(1)
		}
	}
}

// ReplicatePut fans locally admitted puts to their owner peers: one
// synchronous frame to each sub's primary owner (the first ack the
// contract promises), and fire-and-forget queue entries for the
// remaining K-1 owners. Queue overflow drops the copy and counts it —
// replication is an availability optimization, never backpressure on
// the application's put path.
func (m *Mesh) ReplicatePut(subs []service.PutSub) {
	if len(m.peers) == 0 {
		return
	}
	syncGroups := make(map[string][]service.PutSub)
	asyncGroups := make(map[string][]service.PutSub)
	for _, sub := range subs {
		targets := m.putOwners(sub)
		if len(targets) == 0 {
			continue
		}
		syncGroups[targets[0]] = append(syncGroups[targets[0]], sub)
		for _, id := range targets[1:] {
			asyncGroups[id] = append(asyncGroups[id], sub)
		}
	}
	for id, group := range syncGroups {
		m.sendPuts(m.peers[id], group)
	}
	for id, group := range asyncGroups {
		select {
		case m.repCh <- repTask{peerID: id, subs: group}:
		default:
			m.repDrops.Add(int64(len(group)))
		}
	}
}

// putOwners resolves a put's replica targets: the union (in preference
// order) of the owner sets of every namespace the put's keys belong to,
// self excluded (the local copy already exists).
func (m *Mesh) putOwners(sub service.PutSub) []string {
	keyTypes := make([]string, 0, len(sub.Keys))
	for kt := range sub.Keys {
		keyTypes = append(keyTypes, kt)
	}
	sort.Strings(keyTypes) // map order must not decide the primary
	var out []string
	seen := make(map[string]bool, m.cfg.Replicas)
	for _, kt := range keyTypes {
		for _, id := range m.Owners(sub.Function, kt) {
			if id == m.cfg.NodeID || seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// sendPuts delivers one replication frame to one peer under its breaker.
func (m *Mesh) sendPuts(p *peer, subs []service.PutSub) {
	if !p.br.Allow() {
		m.repSkips.Add(int64(len(subs)))
		return
	}
	p.reqs.Add(1)
	_, err := p.client.MultiPut(subs)
	p.br.Report(err)
	if err != nil {
		p.errs.Add(1)
	}
}

// recordSpan emits one mesh-layer span for a traced peer hop, so
// /trace/spans (and potluck-cli explain) shows the request crossing the
// node boundary under the same trace ID as the server and core layers.
func (m *Mesh) recordSpan(start time.Time, trace uint64, function, keyType, peerID, outcome, errMsg string, distance, threshold float64) {
	tel := m.tel.Load()
	if tel == nil || trace == 0 {
		return
	}
	dur := time.Since(start)
	tel.RecordSpan(telemetry.Span{
		Trace:       telemetry.TraceID(trace),
		Start:       start.UnixNano(),
		DurationNs:  int64(dur),
		Layer:       "mesh",
		Function:    function,
		KeyType:     keyType,
		Outcome:     outcome,
		Err:         errMsg,
		Distance:    distance,
		Threshold:   threshold,
		DropoutRoll: -1,
		Probes:      -1,
		Stages: []telemetry.SpanStage{{
			Name: telemetry.StagePeer, DurationNs: int64(dur), Detail: peerID,
		}},
	})
}

// Instrument attaches the mesh to a telemetry hub: per-peer request/hit/
// error counters and breaker state, mesh-wide remote hit/miss and
// replication-loss counters, and breaker transitions by destination
// state. Call before Start.
func (m *Mesh) Instrument(tel *telemetry.Telemetry) {
	m.tel.Store(tel)
	r := tel.Registry
	reqs := r.CounterVec("potluck_mesh_peer_requests_total",
		"Frames sent to each peer (lookups, puts, handshakes).", "peer")
	hits := r.CounterVec("potluck_mesh_peer_hits_total",
		"Sub-lookups each peer answered with a hit.", "peer")
	errs := r.CounterVec("potluck_mesh_peer_errors_total",
		"Transport failures per peer (breaker-reported).", "peer")
	open := r.GaugeVec("potluck_mesh_breaker_open",
		"1 while the peer's breaker refuses calls, else 0.", "peer")
	transitions := r.CounterVec("potluck_mesh_breaker_transitions_total",
		"Peer breaker transitions, by peer and destination state.", "peer", "to")
	for _, id := range m.order {
		p := m.peers[id]
		reqs.With(id).SetFunc(p.reqs.Load)
		hits.With(id).SetFunc(p.hits.Load)
		errs.With(id).SetFunc(p.errs.Load)
		open.With(id).SetFunc(func() float64 {
			if p.br.State() == service.BreakerOpen {
				return 1
			}
			return 0
		})
		id := id
		p.br.SetNotify(func(_, to string) { transitions.With(id, to).Inc() })
	}
	r.Counter("potluck_mesh_remote_hits_total",
		"Local misses resolved by an owner peer.").SetFunc(m.remoteHits.Load)
	r.Counter("potluck_mesh_remote_misses_total",
		"Local misses the owner peers could not resolve either.").SetFunc(m.remoteMisses.Load)
	r.Counter("potluck_mesh_adopt_errors_total",
		"Remote hits the local tier refused to adopt.").SetFunc(m.adoptErrs.Load)
	r.Counter("potluck_mesh_replication_drops_total",
		"Replica copies dropped on async-queue overflow.").SetFunc(m.repDrops.Load)
	r.Counter("potluck_mesh_replication_skips_total",
		"Replica copies skipped because the target's breaker was open.").SetFunc(m.repSkips.Load)
	r.Gauge("potluck_mesh_peers", "Configured remote peers.").Set(float64(len(m.peers)))
	r.Gauge("potluck_mesh_replicas", "Replication factor K.").Set(float64(m.cfg.Replicas))
}
