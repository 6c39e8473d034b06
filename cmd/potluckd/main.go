// Command potluckd runs the Potluck deduplication service as a
// background daemon, the role the Android service plays in the paper
// (§4). Applications connect over a Unix domain socket (default) or TCP
// and issue register/lookup/put requests; see cmd/potluck-cli for a
// hand-driven client and examples/multiapp for programmatic use.
//
// Usage:
//
//	potluckd [-network unix|tcp] [-addr /run/potluck.sock]
//	         [-max-entries N] [-max-bytes N] [-ttl 1h]
//	         [-dropout 0.1] [-policy importance|lru|random|fifo]
//	         [-warmup 100] [-tighten-k 4] [-gamma 0.8] [-reputation]
//	         [-max-conns N] [-max-handlers N] [-idle-timeout 2m]
//	         [-read-timeout 10s] [-write-timeout 10s] [-drain-timeout 5s]
//	         [-admin-addr 127.0.0.1:9744]
//	         [-data-dir /var/lib/potluck] [-snapshot-interval 1m]
//	         [-fsync always|interval|never] [-fsync-interval 100ms]
//	         [-segment-bytes N]
//	         [-node-id A] [-peers B=/run/b.sock,C=/run/c.sock]
//	         [-replicas 2] [-peer-timeout 2s] [-peer-failures 3]
//	         [-peer-cooldown 5s]
//	         [-hnsw-m 16] [-hnsw-efc 128] [-hnsw-efs 64]
//	         [-ivf-cells 256] [-ivf-nprobe 16] [-ivf-train 4096]
//	         [-pq-subspaces N] [-pq-train 1024] [-pq-rerank 32]
//	         [-whatif] [-whatif-rate 0.015625]
//	         [-whatif-capacities 0.25,0.5,1,2,4]
//	         [-whatif-grid 0,0.25,0.5,0.75,1,1.5,2,3,4]
//
// -peers joins the daemon to a cache mesh: each entry is id=addr (the
// peer's -node-id and socket, dialed over the same -network transport).
// Ownership of every (function, keyType) namespace is rendezvous-hashed
// across the members; lookups that miss locally are forwarded to the
// namespace's owner peers and puts are replicated to -replicas owners.
// A per-peer circuit breaker demotes dead peers and re-admits them
// after recovery.
//
// -admin-addr starts an HTTP observability endpoint serving /metrics
// (Prometheus text), /stats, /trace/spans, /whatif and /debug/explain
// (JSON), and /debug/pprof/.
//
// -whatif attaches the online counterfactual profiler (internal/whatif):
// lookups are sampled spatially at -whatif-rate and drive ghost caches
// at the -whatif-capacities multiples of the real capacity (LRU at
// every multiple, importance at 1x), a threshold sweep over the -whatif-grid
// multipliers, and the Che-approximation predicted-vs-measured check.
// The report is served at /whatif on the admin endpoint (and by
// potluck-cli whatif).
//
// -data-dir enables the durable store (internal/store): every
// registration, admission, and removal is appended to a crash-safe
// segment log, snapshots are taken on -snapshot-interval, and at boot
// the cache state — entries, per-function counters, and tuner
// thresholds — is recovered before the socket opens, and a graceful
// shutdown ends with a final snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

func main() {
	var (
		network    = flag.String("network", "unix", `transport: "unix" or "tcp"`)
		addr       = flag.String("addr", "/tmp/potluck.sock", "socket path (unix) or host:port (tcp)")
		maxEntries = flag.Int("max-entries", 0, "entry capacity (0 = unlimited)")
		maxBytes   = flag.Int64("max-bytes", 512<<20, "byte capacity (paper's 512 MB heap bound)")
		ttl        = flag.Duration("ttl", time.Hour, "entry validity period")
		dropout    = flag.Float64("dropout", core.DefaultDropoutRate, "random-dropout probability")
		policy     = flag.String("policy", "importance", "eviction policy: importance, lru, random, fifo")
		warmup     = flag.Int("warmup", 100, "entries cached before threshold tuning activates (z)")
		tightenK   = flag.Float64("tighten-k", 4, "threshold tightening divisor (k)")
		gamma      = flag.Float64("gamma", 0.8, "threshold loosening EWMA weight (γ)")
		reputation = flag.Bool("reputation", false, "enable the cache-pollution reputation defence")

		dataDir       = flag.String("data-dir", "", "durable store directory: segment log + snapshots, recovered at boot (empty = in-memory only)")
		snapInterval  = flag.Duration("snapshot-interval", time.Minute, "durable store snapshot+compaction cadence")
		fsyncPolicy   = flag.String("fsync", "interval", "durable store fsync policy: always, interval, never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync interval")
		segmentBytes  = flag.Int64("segment-bytes", 8<<20, "durable store segment roll size")

		maxConns     = flag.Int("max-conns", 0, "connection cap (0 = default 1024, -1 = unlimited)")
		maxHandlers  = flag.Int("max-handlers", 0, "concurrent request handler cap, the AppListener threadpool width (0 = default 256, -1 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "per-connection idle/next-request deadline (0 = default 2m, -1ns = none)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-request body read deadline (0 = default 10s, -1ns = none)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-reply write deadline (0 = default 10s, -1ns = none)")
		drainTimeout = flag.Duration("drain-timeout", 0, "graceful-shutdown drain budget for in-flight requests (0 = default 5s)")

		adminAddr = flag.String("admin-addr", "", "HTTP observability endpoint address, e.g. 127.0.0.1:9744 (empty = disabled)")

		nodeID       = flag.String("node-id", "", "this node's mesh identity (default: the listen address)")
		peers        = flag.String("peers", "", "mesh peers as comma-separated id=addr pairs, dialed over -network (empty = standalone)")
		replicas     = flag.Int("replicas", 2, "mesh replication factor K: owner peers per (function, keyType) namespace")
		peerTimeout  = flag.Duration("peer-timeout", 2*time.Second, "per-frame deadline on mesh peer calls")
		peerFailures = flag.Int("peer-failures", 0, "consecutive peer failures that trip its circuit breaker (0 = default 3)")
		peerCooldown = flag.Duration("peer-cooldown", 0, "breaker open duration before a half-open probe (0 = default 5s)")

		whatIf           = flag.Bool("whatif", false, "attach the counterfactual profiler (served at /whatif)")
		whatIfRate       = flag.Float64("whatif-rate", whatif.DefaultRate, "what-if spatial sample rate in (0,1]")
		whatIfCapacities = flag.String("whatif-capacities", "0.25,0.5,1,2,4", "what-if ghost-cache capacity multiples")
		whatIfGrid       = flag.String("whatif-grid", "0,0.25,0.5,0.75,1,1.5,2,3,4", "what-if threshold-sweep multipliers")

		hnswM    = flag.Int("hnsw-m", 0, "HNSW max links per node per layer (0 = default 16)")
		hnswEfc  = flag.Int("hnsw-efc", 0, "HNSW construction candidate-pool width (0 = default 128)")
		hnswEfs  = flag.Int("hnsw-efs", 0, "HNSW search candidate-pool width (0 = default 64)")
		ivfCells = flag.Int("ivf-cells", 0, "IVF coarse-quantizer cell count (0 = default 256)")
		ivfProbe = flag.Int("ivf-nprobe", 0, "IVF cells scanned per query (0 = default 16)")
		ivfTrain = flag.Int("ivf-train", 0, "IVF inserts buffered before centroid training (0 = default 4096)")
		pqSubs   = flag.Int("pq-subspaces", 0, "PQ sub-quantizer count, one code byte each (0 = derive dim/4)")
		pqTrain  = flag.Int("pq-train", 0, "PQ inserts buffered before codebook training (0 = default 1024)")
		pqRerank = flag.Int("pq-rerank", 0, "PQ extra candidates re-ranked with exact distances (0 = default 32)")
	)
	flag.Parse()

	if _, err := core.NewPolicy(core.PolicyKind(*policy), 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := core.Config{
		MaxEntries:  *maxEntries,
		MaxBytes:    *maxBytes,
		DefaultTTL:  *ttl,
		DropoutRate: *dropout,
		Policy:      core.PolicyKind(*policy),
		Tuner:       core.TunerConfig{WarmupZ: *warmup, K: *tightenK, Gamma: *gamma},
		IndexOptions: index.Options{
			HNSW: index.HNSWConfig{M: *hnswM, EfConstruction: *hnswEfc, EfSearch: *hnswEfs},
			IVF:  index.IVFConfig{Cells: *ivfCells, NProbe: *ivfProbe, TrainAfter: *ivfTrain},
			PQ:   index.PQConfig{Subspaces: *pqSubs, TrainSize: *pqTrain, ReRank: *pqRerank},
		},
	}
	if *dropout <= 0 {
		cfg.DisableDropout = true
	}
	if *reputation {
		cfg.Reputation = &core.ReputationConfig{}
	}

	if *network == "unix" {
		// A stale socket from an unclean shutdown blocks the listener.
		os.Remove(*addr)
	}
	var tel *telemetry.Telemetry
	if *adminAddr != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
		// Key generation is the hit path's fixed cost: expose per-extractor
		// extraction latency on /metrics for any in-process extraction.
		feature.Instrument(tel.Registry)
		// Process-level health: goroutines, heap, GC pauses, build info.
		telemetry.RegisterRuntime(tel.Registry, tel.Started)
	}
	var prof *whatif.Profiler
	if *whatIf {
		caps, err := parseFloats(*whatIfCapacities, "-whatif-capacities")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		grid, err := parseFloats(*whatIfGrid, "-whatif-grid")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		prof = whatif.New(whatif.Config{
			Rate:          *whatIfRate,
			Capacity:      *maxEntries,
			CapacityBytes: *maxBytes,
			Multiples:     caps,
			Grid:          grid,
			Telemetry:     tel,
		})
		cfg.Tap = prof
	}
	var durable *store.Log
	if *dataDir != "" {
		fsp, err := store.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		durable, err = store.Open(store.Config{
			Dir:              *dataDir,
			SegmentBytes:     *segmentBytes,
			Fsync:            fsp,
			FsyncInterval:    *fsyncInterval,
			SnapshotInterval: *snapInterval,
			Logf:             log.Printf,
		})
		if err != nil {
			log.Fatalf("potluckd: %v", err)
		}
		cfg.Store = durable
	}
	cache := core.New(cfg)
	if durable != nil {
		// Recover BEFORE the socket opens, so the first lookup already
		// sees the pre-crash entries and tuner thresholds.
		state, rstats, err := durable.Recover()
		if err != nil {
			log.Fatalf("potluckd: recovery: %v", err)
		}
		st, err := cache.Restore(state)
		if err != nil {
			log.Fatalf("potluckd: restore: %v", err)
		}
		log.Printf("potluckd: recovered %d entries across %d functions in %s (expired=%d skipped=%d torn-tail=%v snapshot=%v)",
			st.Entries, st.Functions, rstats.Duration.Round(time.Millisecond),
			st.Expired, st.Skipped, rstats.TornTail, rstats.SnapshotUsed)
	}
	self := *nodeID
	if self == "" {
		self = *addr
	}
	srv := service.NewServerConfig(cache, service.ServerConfig{
		IdleTimeout:  *idleTimeout,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		MaxConns:     *maxConns,
		MaxHandlers:  *maxHandlers,
		DrainTimeout: *drainTimeout,
		NodeID:       self,
	})
	srv.Logf = log.Printf

	var mesh *cluster.Mesh
	if *peers != "" {
		specs, err := parsePeers(*peers, *network)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mesh, err = cluster.New(cluster.Config{
			NodeID:           self,
			Local:            cache,
			Peers:            specs,
			Replicas:         *replicas,
			FailureThreshold: *peerFailures,
			Cooldown:         *peerCooldown,
			AdoptTTL:         *ttl,
			Client: service.ClientConfig{
				RequestTimeout: *peerTimeout,
				DialTimeout:    *peerTimeout,
			},
			Logf: log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		srv.SetRemote(mesh)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The snapshot loop gets its own context: it must outlive the signal
	// context so the final snapshot runs after the server has drained
	// in-flight puts, not concurrently with them.
	var storeDone chan struct{}
	var storeStop context.CancelFunc
	if durable != nil {
		var storeCtx context.Context
		storeCtx, storeStop = context.WithCancel(context.Background())
		storeDone = make(chan struct{})
		go func() {
			defer close(storeDone)
			durable.Run(storeCtx, cache)
		}()
	}

	started := time.Now()
	var admin *http.Server
	if tel != nil {
		srv.Instrument(tel)
		if durable != nil {
			durable.Instrument(tel.Registry)
		}
		if mesh != nil {
			mesh.Instrument(tel)
		}
		acfg := telemetry.AdminConfig{
			Stats: func() any {
				st := srv.AdminStats(started)
				if mesh == nil {
					return st
				}
				return struct {
					service.AdminStats
					MeshPeers []cluster.PeerState `json:"meshPeers"`
				}{st, mesh.Peers()}
			},
			Explain: func(fn string, n int) (any, error) { return cache.Explain(fn, n) },
		}
		if prof != nil {
			// Left nil when the profiler is detached so /whatif serves 404
			// rather than a null report.
			acfg.WhatIf = func() any { return prof.Snapshot() }
		}
		admin = &http.Server{
			Addr:              *adminAddr,
			Handler:           telemetry.AdminHandlerConfig(tel, acfg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("potluckd: admin endpoint on http://%s (/metrics /stats /trace/spans /whatif /debug/explain /debug/pprof/)", *adminAddr)
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("potluckd: admin endpoint: %v", err)
			}
		}()
	}
	if mesh != nil {
		mesh.Start()
		log.Printf("potluckd: mesh node %q with %d peers (replicas=%d)", self, len(mesh.Members())-1, *replicas)
	}
	if prof != nil {
		prof.Start()
		log.Printf("potluckd: what-if profiler attached (rate=%g capacities=%s grid=%s)",
			*whatIfRate, *whatIfCapacities, *whatIfGrid)
	}
	scfg := srv.Config()
	log.Printf("potluckd: listening on %s %s (policy=%s ttl=%s dropout=%.2f max-conns=%d max-handlers=%d idle=%s)",
		*network, *addr, *policy, *ttl, *dropout, scfg.MaxConns, scfg.MaxHandlers, scfg.IdleTimeout)
	if err := srv.ListenAndServe(ctx, *network, *addr); err != nil {
		log.Fatalf("potluckd: %v", err)
	}
	srv.Close() // drain in-flight requests before the final snapshot
	if mesh != nil {
		mesh.Close()
	}
	if prof != nil {
		prof.Close()
	}
	if durable != nil {
		storeStop() // Run takes its final snapshot on the way out
		<-storeDone
		if err := durable.Close(); err != nil {
			log.Printf("potluckd: durable store close: %v", err)
		}
	}
	if admin != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		admin.Shutdown(sctx)
		scancel()
	}
	log.Printf("potluckd: shut down")
}

// parseFloats parses a comma-separated list of non-negative floats, as
// used by the -whatif-capacities and -whatif-grid flags.
func parseFloats(s, flagName string) ([]float64, error) {
	var out []float64
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		v, err := strconv.ParseFloat(entry, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("potluckd: bad %s entry %q, want a non-negative number", flagName, entry)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("potluckd: %s %q contains no entries", flagName, s)
	}
	return out, nil
}

// parsePeers parses the -peers flag: comma-separated id=addr pairs, all
// dialed over the daemon's own transport.
func parsePeers(s, network string) ([]cluster.PeerSpec, error) {
	var out []cluster.PeerSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("potluckd: bad -peers entry %q, want id=addr", entry)
		}
		out = append(out, cluster.PeerSpec{ID: id, Network: network, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("potluckd: -peers %q contains no entries", s)
	}
	return out, nil
}
