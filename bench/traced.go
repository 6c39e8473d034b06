package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The traced run. This change may not instrument the program, so the
// per-layer numbers come from outside: the first tracedOps operations of
// the workload's own stream are replayed, from the same seeded state,
// through each layer's public functions with a span around every call.
//
//	pass 0  service.Client -> the child daemon, one caller
//	pass 1  service.Client -> an in-process service.Server on a Unix socket
//	pass 2  the same ops directly on core.Cache
//	pass 3  the same keys directly on a bare index.Index
//
// Passes 1 to 3 take turns, a run of the ops at a time, so that a slow
// spell of the host falls on all three and cancels in the subtraction,
// and every pass also replays the untraced twin runs, so that each
// layer's cache or index has seen the same requests when it executes an
// op. A layer's self time is its pass median minus the next pass's: what
// one caller waits for. A lone caller lets both sides go idle between
// requests, and waking a thread on this host costs more than a small
// request, so the service layer's self time includes those wake-ups. The
// layer suite (layersuite.go) then times codec, framing, eviction, every
// index kind, the store, the extractors and the classifier on fixed
// seeded data. End-to-end numbers never come from this run.

const (
	// tracedOps is how many operations each pass replays with spans; a
	// batched workload replays tracedOps/16 requests.
	tracedOps = 2048
	// tracedRuns is how many runs the traced ops are cut into. A run of
	// every pass alternates with an untraced twin run of the same length.
	tracedRuns = 8
)

// perLayer lists the per-layer metrics, demoted end-to-end ones first.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), demoted...)
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better, 0}) }
	for _, m := range [][3]string{
		{"e2e.open_lookup_p50_us", "us", "lower"},
		{"e2e.open_lookup_p99_us", "us", "lower"},
		{"e2e.solo_lookup_p50_us", "us", "lower"},

		{"service.encode_request_ns", "ns", "lower"},
		{"service.decode_request_ns", "ns", "lower"},
		{"service.encode_reply_ns", "ns", "lower"},
		{"service.decode_reply_ns", "ns", "lower"},
		{"service.codec_allocs_per_op", "count", "lower"},
		{"service.wire_bytes_per_op", "B", "lower"},
		{"service.frame_echo_us", "us", "lower"},
		{"service.rtt_p50_us", "us", "lower"},
		{"service.rtt_p99_us", "us", "lower"},
		{"service.rtt_allocs_per_op", "count", "lower"},
		{"service.self_us", "us", "lower"},
		{"service.put_self_us", "us", "lower"},
		{"service.batch16_us_per_op", "us", "lower"},
		{"service.batch16_allocs_per_op", "count", "lower"},
		{"service.peak_outstanding", "count", "lower"},
		{"service.errors", "count", "lower"},

		{"core.lookup_hit_ns", "ns", "lower"},
		{"core.lookup_miss_ns", "ns", "lower"},
		{"core.put_ns", "ns", "lower"},
		{"core.put_evict_ns", "ns", "lower"},
		{"core.lookup_allocs_per_op", "count", "lower"},
		{"core.put_allocs_per_op", "count", "lower"},
		{"core.self_ns", "ns", "lower"},
		{"core.put_self_ns", "ns", "lower"},
		{"core.hits", "count", "higher"},
		{"core.misses", "count", "lower"},
		{"core.dropouts", "count", "lower"},
		{"core.puts", "count", "lower"},
		{"core.evictions", "count", "lower"},
		{"core.expirations", "count", "lower"},
		{"core.entries", "count", "lower"},
		{"core.bytes", "B", "lower"},
		{"core.saved_compute_s", "s", "higher"},
		{"core.threshold", "ratio", "higher"},

		{"index.self_ns", "ns", "lower"},
	} {
		add(m[0], m[1], m[2])
	}
	for _, kind := range indexKinds {
		add("index.nearest_ns."+kind, "ns", "lower")
		add("index.insert_ns."+kind, "ns", "lower")
		add("index.remove_ns."+kind, "ns", "lower")
		add("index.probes_per_query."+kind, "count", "lower")
		add("index.allocs_per_query."+kind, "count", "lower")
		add("index.recall."+kind, "ratio", "higher")
		add("index.key_bytes_per_entry."+kind, "B", "lower")
	}
	for _, m := range [][3]string{
		{"store.append_ns", "ns", "lower"},
		{"store.sync_us", "us", "lower"},
		{"store.disk_bytes_per_user_byte", "ratio", "lower"},
		{"store.fsyncs", "count", "lower"},
		{"store.segments", "count", "lower"},
		{"store.snapshot_ms", "ms", "lower"},
		{"store.recover_ms", "ms", "lower"},
		{"store.recovered_entries", "count", "higher"},
	} {
		add(m[0], m[1], m[2])
	}
	for _, name := range featureNames {
		add("feature.extract_us."+name, "us", "lower")
		add("feature.extract_allocs."+name, "count", "lower")
	}
	for _, m := range [][3]string{
		{"nn.classify_ms", "ms", "lower"},
		{"nn.classify_allocs", "count", "lower"},
		{"app.keygen_share", "ratio", "lower"},
		{"app.lookup_share", "ratio", "lower"},
		{"app.compute_share", "ratio", "lower"},
		{"app.put_share", "ratio", "lower"},
		{"app.miss_compute_share", "ratio", "higher"},

		{"loadgen.late_p99_us", "us", "lower"},
		{"loadgen.sent", "count", "higher"},
		{"loadgen.cpu_s", "s", "lower"},
		{"daemon.cpu_s", "s", "lower"},
		{"daemon.ctx_switches", "count", "lower"},
		{"host.calib_ns", "ns", "lower"},
		{"host.calib_spread_pct", "%", "lower"},
		{"trace.spans", "count", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.attribution_gap_pct", "%", "lower"},
	} {
		add(m[0], m[1], m[2])
	}
	return defs
}

// pass is one replay of the traced ops through one layer.
type pass struct {
	lookupNs, putNs []int64
	ops             int
	total           outcome
	allocsPerOp     float64
	elapsed         time.Duration
}

// merge appends q, a later part of the same pass.
func (p *pass) merge(q pass) {
	n, k := float64(p.ops), float64(q.ops)
	p.allocsPerOp = (p.allocsPerOp*n + q.allocsPerOp*k) / (n + k)
	p.lookupNs = append(p.lookupNs, q.lookupNs...)
	p.putNs = append(p.putNs, q.putNs...)
	p.ops += q.ops
	p.total.add(q.total)
	p.elapsed += q.elapsed
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runPass executes ops in order from one caller. Each op is a root span;
// the layer's lookup and put calls are its children. reqBase keeps the
// request ids of different passes apart.
func runPass(tr *tracer, layer string, reqBase int, ops []*op, exec func(*op) outcome) pass {
	var p pass
	before := mallocs()
	start := time.Now()
	for i, o := range ops {
		req := reqBase + i
		root := tr.begin("op", -1, req)
		t0 := time.Now()
		out := exec(o)
		if out.lookups > 0 {
			tr.add(layer+".lookup", root, req, t0, out.lookupNs)
			p.lookupNs = append(p.lookupNs, out.lookupNs)
		}
		if out.putNs > 0 {
			tr.add(layer+".put", root, req, t0.Add(time.Duration(out.lookupNs)), out.putNs)
			p.putNs = append(p.putNs, out.putNs)
		}
		tr.end(root)
		p.total.add(out)
	}
	p.ops = len(ops)
	p.elapsed = time.Since(start)
	p.allocsPerOp = float64(mallocs()-before) / float64(len(ops))
	return p
}

// layerPass is one of passes 1 to 3: how it executes an op, and what the
// traced runs and their untraced twins measured.
type layerPass struct {
	name          string
	exec          func(*op) outcome
	traced, plain pass
}

// interleave replays ops through the passes a run at a time: run k of
// every pass, each followed by its twin run without spans, before run
// k+1 of any.
func interleave(tr *tracer, passes []*layerPass, ops, twin []*op) {
	run := len(ops) / tracedRuns
	for i := 0; i < len(ops); i += run {
		for n, p := range passes {
			p.traced.merge(runPass(tr, p.name, (n+1)<<20+i, ops[i:i+run], p.exec))
			p.plain.merge(runPass(nil, p.name, 0, twin[i:i+run], p.exec))
		}
	}
}

// inproc is pass 1's server: the same service.Server and core.Cache the
// daemon runs, inside this process, with the workload's configuration.
type inproc struct {
	cache  *Cache
	srv    *Server
	addr   string
	dir    string
	log    *StoreLog
	cancel context.CancelFunc
	done   chan error
}

func usesStore(w workload) bool {
	for _, f := range w.daemonFlags("") {
		if f == "-data-dir" {
			return true
		}
	}
	return false
}

// newWorkloadCache builds a cache configured as the workload's daemon is,
// with the durable store attached when the daemon has one.
func newWorkloadCache(w workload, dir string) (*Cache, *StoreLog, error) {
	cc := w.cacheConfig()
	var log *StoreLog
	if usesStore(w) {
		var err error
		log, err = openStore(StoreConfig{Dir: filepath.Join(dir, "data"), Fsync: fsyncInterval, FsyncInterval: weFsyncInterval})
		if err != nil {
			return nil, nil, err
		}
		cc.Store = log
	}
	return newCache(cc), log, nil
}

func startInproc(cfg config, w workload) (*inproc, error) {
	dir, err := runDir(cfg)
	if err != nil {
		return nil, err
	}
	p := &inproc{dir: dir, addr: filepath.Join(dir, "s"), done: make(chan error, 1)}
	if p.cache, p.log, err = newWorkloadCache(w, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("unix", p.addr)
	if err != nil {
		p.close()
		return nil, err
	}
	p.srv = newServer(p.cache)
	var ctx context.Context
	ctx, p.cancel = context.WithCancel(context.Background())
	go func() { p.done <- serve(p.srv, ctx, l) }()
	return p, nil
}

func (p *inproc) close() {
	if p.srv != nil {
		closeServer(p.srv)
		p.cancel()
		<-p.done
	}
	if p.log != nil {
		p.log.Close()
	}
	os.RemoveAll(p.dir)
}

// seedCore brings a bare cache to the workload's seeded state through
// core's own calls. It reports which set-up ops stored their keys, so
// that pass 3 can seed its index with the same keys.
func seedCore(c *Cache, w workload) ([]bool, error) {
	t := w.target()
	if err := registerCore(c, t); err != nil {
		return nil, err
	}
	var sent outcome
	var stored []bool
	for _, o := range w.seedOps() {
		out := execCore(c, t, o)
		stored = append(stored, out.puts > 0)
		sent.add(out)
	}
	if sent.failed > 0 {
		return nil, fmt.Errorf("%d operations failed seeding the cache", sent.failed)
	}
	return stored, nil
}

// coreLog is what pass 2 did with each op, in the order it ran them.
type coreLog struct {
	didPut   []bool // whether the op put
	dropouts []int  // lookups of the op that dropped out
}

// indexExec builds pass 3. The index holds the keys pass 2's cache stored
// during set-up; where pass 2 put, the key goes in here too, and the
// oldest key leaves once the cache's capacity is passed (untimed). The
// probe then sees an index of the size the cache had and of about its
// content: which entry the cache evicted cannot be seen from outside.
// Every run of pass 3 follows the same run of pass 2, whose log it reads.
func indexExec(w workload, seeded []bool, p2 *coreLog) (func(*op) outcome, error) {
	t := w.target()
	idx, err := newIndex(t.keyType.Index, int(t.keyType.Dim), w.cacheConfig().IndexOptions)
	if err != nil {
		return nil, err
	}
	var next, oldest IndexID
	capacity := w.cacheConfig().MaxEntries
	insert := func(k Vector) error {
		next++
		err := idx.Insert(next, k)
		for capacity > 0 && idx.Len() > capacity {
			oldest++
			idx.Remove(oldest)
		}
		return err
	}
	for j, o := range w.seedOps() {
		if !seeded[j] {
			continue
		}
		for _, k := range o.keys {
			if err := insert(k); err != nil {
				return nil, err
			}
		}
	}
	i := -1
	return func(o *op) outcome {
		i++
		// Core skips the index for a lookup that drops out; skip as many.
		out := execIndex(idx, o, p2.dropouts[i])
		if o.kind == opLookup && p2.didPut[i] {
			if err := insert(o.keys[0]); err != nil {
				out.failed++
			}
		}
		return out
	}, nil
}

// runTraced is the traced run of one workload.
func runTraced(cfg config, w workload) (*report, *values, error) {
	tr := newTracer()
	m := newValues()
	t := w.target()
	var aging, ops, untracedOps []*op
	var solo pass
	var visionTraced *visionStats
	var open *windowStats

	// A short untraced window against the child daemon supplies the
	// demoted end-to-end metrics and the daemon's counters; pass 0 then
	// replays the traced ops against the same daemon.
	short := cfg
	short.seconds = cfg.seconds / 3
	r, err := runUntraced(short, w, func(e *env) outcome {
		// The stream's first ops alternate, a run at a time, between the
		// traced replay and its untraced twin, so that both see the cache
		// at the same ages.
		next := w.stream(0)
		for i := 0; i < w.agingOps(); i++ {
			aging = append(aging, next())
		}
		n := tracedOps / w.opsPerRequest()
		for i := 0; i < 2*n; i++ {
			if i/(n/tracedRuns)%2 == 0 {
				ops = append(ops, next())
			} else {
				untracedOps = append(untracedOps, next())
			}
		}
		if vision, ok := w.(*appVision); ok {
			// The traced frame loop: every frame and stage is a span.
			visionTraced = vision.runVision(e.clients, time.Duration(short.seconds*float64(time.Second)), tr)
			solo.lookupNs = visionTraced.lookupNs
			return visionTraced.total
		}
		solo = runPass(tr, "child", 0, ops, func(o *op) outcome { return execClient(e.clients[0], t, o) })
		sent := solo.total
		if w.name() == "svc-read" {
			// Phase A of the issue: independent arrivals at a fixed rate.
			open = openLoop(e.exec(t), streamsOf(w, connections), svcOpenRate, time.Duration(short.seconds*float64(time.Second)))
			sent.add(open.total)
		}
		return sent
	})
	if err != nil {
		return nil, nil, err
	}
	e2e := r.endToEndValues()
	for _, d := range demoted {
		m.set(d.name, e2e.v[d.name])
	}
	if open != nil {
		o := summarize(open.lookupNs)
		m.set("e2e.open_lookup_p50_us", us(o.p50))
		m.set("e2e.open_lookup_p99_us", us(o.tail))
		m.set("loadgen.late_p99_us", us(summarize(open.lateNs).tail))
		m.set("service.peak_outstanding", float64(open.peakOutstanding))
		if open.backlogGrowing {
			r.violate("open-loop backlog was still growing at the end of phase A (peak %d outstanding)", open.peakOutstanding)
		}
	} else {
		for _, name := range []string{"e2e.open_lookup_p50_us", "e2e.open_lookup_p99_us", "loadgen.late_p99_us"} {
			m.set(name, 0)
		}
		m.set("service.peak_outstanding", float64(w.callers()))
	}
	sent := r.measured()
	m.set("service.errors", float64(sent.failed))
	m.set("loadgen.sent", float64(sent.lookups+sent.puts))
	m.set("loadgen.cpu_s", r.loadgen.Seconds())
	m.set("daemon.cpu_s", (r.after.cpu - r.before.cpu).Seconds())
	m.set("daemon.ctx_switches", float64(r.after.ctxSwitches-r.before.ctxSwitches))
	s := r.stats
	m.set("core.hits", float64(s.Hits))
	m.set("core.misses", float64(s.Misses-s.Dropouts))
	m.set("core.dropouts", float64(s.Dropouts))
	m.set("core.puts", float64(s.Puts))
	m.set("core.evictions", float64(s.Evictions))
	m.set("core.expirations", float64(s.Expirations))
	m.set("core.entries", float64(s.Entries))
	m.set("core.bytes", float64(s.Bytes))
	m.set("core.saved_compute_s", time.Duration(s.SavedComputeN).Seconds())
	m.set("core.threshold", sent.thresh)

	// Pass 1: the in-process server, seeded through the wire like the
	// child. Its twin runs without spans give the tracing overhead.
	srv, err := startInproc(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	defer srv.close()
	if _, err := seedDaemon(srv.addr, w); err != nil {
		return nil, nil, fmt.Errorf("seed in-process server: %w", err)
	}
	c, err := dial("unix", srv.addr, "bench-trace")
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	service := &layerPass{name: "service", exec: func(o *op) outcome { return execClient(c, t, o) }}

	// Pass 2: a fresh cache seeded to the same state through core.
	dir, err := runDir(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cache, log, err := newWorkloadCache(w, dir)
	if err != nil {
		return nil, nil, err
	}
	if log != nil {
		defer log.Close()
	}
	seeded, err := seedCore(cache, w)
	if err != nil {
		return nil, nil, err
	}
	var did coreLog
	core := &layerPass{name: "core", exec: func(o *op) outcome {
		out := execCore(cache, t, o)
		did.didPut = append(did.didPut, out.puts > 0)
		did.dropouts = append(did.dropouts, out.dropouts)
		return out
	}}

	index := &layerPass{name: "index"}
	if index.exec, err = indexExec(w, seeded, &did); err != nil {
		return nil, nil, err
	}
	// This process holds the inputs, the spans and three copies of the
	// cache, a heap the daemon never has, and marking it costs whichever
	// pass is running when the collector starts. With the collector's
	// target raised, a cycle is rare enough to leave the medians alone.
	gcPercent := debug.SetGCPercent(800)
	passes := []*layerPass{service, core, index}
	for _, p := range passes {
		// Unrecorded: the state the window measures; see agingOps.
		runPass(nil, p.name, 0, aging, p.exec)
	}
	interleave(tr, passes, ops, untracedOps)
	debug.SetGCPercent(gcPercent)
	p1, p2, p3 := service.traced, core.traced, index.traced
	m.set("trace.overhead_pct", 100*(1-rate(p1)/rate(service.plain)))
	suiteBatch16(m, c, t, ops)

	if f := p1.total.failed + p2.total.failed + p3.total.failed; f > 0 {
		r.violate("%d operations failed in the traced passes", f)
	}

	rtt, viaCore, viaIndex := summarize(p1.lookupNs), summarize(p2.lookupNs), summarize(p3.lookupNs)
	m.set("service.rtt_p50_us", us(rtt.p50))
	m.set("service.rtt_p99_us", us(rtt.tail))
	m.set("service.rtt_allocs_per_op", p1.allocsPerOp)
	m.set("service.self_us", us(rtt.p50-viaCore.p50))
	m.set("core.self_ns", viaCore.p50-viaIndex.p50)
	m.set("index.self_ns", viaIndex.p50)
	// A put is not replayed on the bare index, so core's put number
	// includes the index work a put causes.
	m.set("service.put_self_us", us(summarize(p1.putNs).p50-summarize(p2.putNs).p50))
	m.set("core.put_self_ns", summarize(p2.putNs).p50)
	// What the layers do not explain of a lookup sent to the child: the
	// process boundary.
	child := summarize(solo.lookupNs)
	m.set("e2e.solo_lookup_p50_us", us(child.p50))
	m.set("trace.attribution_gap_pct", 100*(child.p50-rtt.p50)/child.p50)

	if err := layerSuite(cfg, w, m, ops[0]); err != nil {
		return nil, nil, err
	}
	appShares(m, r, visionTraced, tr)

	m.set("trace.spans", float64(tr.len()))
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name()+".json")); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return r, m, nil
}

func rate(p pass) float64 {
	return float64(len(p.lookupNs)+len(p.putNs)) / p.elapsed.Seconds()
}

// appShares computes, from the traced frame spans, each stage's share of
// frame wall time. The shares and the frames' own self time (the loop,
// the span bookkeeping) sum to one; more than 2% of self time means the
// stages no longer account for the frame.
func appShares(m *values, r *report, v *visionStats, tr *tracer) {
	names := []string{"app.keygen_share", "app.lookup_share", "app.compute_share", "app.put_share"}
	if v == nil {
		for _, n := range names {
			m.set(n, 0)
		}
		m.set("app.miss_compute_share", 0)
		return
	}
	tr.mu.Lock()
	dur, self := totalsByName(tr.spans)
	tr.mu.Unlock()
	var sum float64
	for i, stage := range visionStages {
		share := float64(dur[stage]) / float64(dur["frame"])
		m.set(names[i], share)
		sum += share
	}
	if unexplained := float64(self["frame"]) / float64(dur["frame"]); sum < 0.98 || sum > 1.02 {
		r.violate("app.*_share sum to %.4f (frame self time %.4f), want 1 within 0.02", sum, unexplained)
	}
	// Of a frame that missed, the share spent generating the key and
	// recomputing: feature and nn against everything Potluck adds. Every
	// compute span belongs to a missed frame; key generation is charged
	// at its mean.
	var miss int64
	for _, ns := range v.missNs {
		miss += ns
	}
	work := dur["compute"] + dur["keygen"]/int64(len(v.frameNs))*int64(len(v.missNs))
	m.set("app.miss_compute_share", float64(work)/float64(miss))
}

// medianPer times batches of per calls and returns the median time of
// one call: single calls of a few hundred nanoseconds are below what the
// clock resolves.
func medianPer(batches, per int, f func()) float64 {
	samples := make([]float64, batches)
	for b := range samples {
		start := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		samples[b] = float64(time.Since(start)) / float64(per)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// allocsPer counts heap allocations per call of f.
func allocsPer(n int, f func()) float64 {
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-before) / float64(n)
}
