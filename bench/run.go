package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is what the command line fixes for one run.
type config struct {
	daemonBin string
	workdir   string // directory for sockets and data, inside the checkout
	outDir    string // where span files go
	seed      int64
	seconds   float64
	small     bool // -short: small inputs, for smoke tests only

	daemonCPUs *cpuSet // set by runUntraced for a workload that pins
}

// A run sets the daemon up at least setupMinRepeats times and goes on, up
// to setupMaxRepeats, while the set-ups so far took less than
// setupBudget together: a set-up of milliseconds is repeated often, one
// of seconds three times. setup_s is the median, and the window runs
// against the last daemon.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 15
	setupBudget     = 2 * time.Second
)

// report is everything one untraced run measured.
type report struct {
	w        workload
	setupS   []float64
	closed   *windowStats // the closed-loop window
	vision   *visionStats // app-vision
	sent     outcome      // every op sent to the measured daemon since it started
	stats    StatsPayload
	before   procSample
	after    procSample
	loadgen  time.Duration // this process's CPU during the window
	calibNs  []float64
	sliceCPU []time.Duration // the daemon's CPU time at each slice boundary of the closed loop
	durable  *durability
	violated []string
}

func (r *report) violate(format string, args ...any) {
	r.violated = append(r.violated, fmt.Sprintf(format, args...))
}

// env is one daemon set up for a workload, with its connections.
type env struct {
	d       *daemon
	dir     string
	clients []*Client
}

// exec sends caller i's ops over connection i mod connections.
func (e *env) exec(t target) executor {
	return func(caller int, o *op) outcome { return execClient(e.clients[caller%connections], t, o) }
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.d != nil {
		e.d.kill()
	}
	os.RemoveAll(e.dir)
}

// runDir makes a private directory for one daemon. The path stays
// relative and short: a Unix socket path holds 108 bytes at most.
func runDir(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.workdir, "r")
}

// removeRunDirs deletes what runDir made, for the exit paths that skip
// the deferred clean-up.
func removeRunDirs(workdir string) {
	dirs, _ := filepath.Glob(filepath.Join(workdir, "r*")) // the pattern is well-formed
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// seedDaemon registers the workload's function at addr and runs its
// set-up stream through the real protocol, ending with one answered
// lookup. It serves the child daemon and the traced in-process server
// alike.
func seedDaemon(addr string, w workload) (outcome, error) {
	var sent outcome
	c, err := dial("unix", addr, "bench-setup")
	if err != nil {
		return sent, err
	}
	defer c.Close()
	t := w.target()
	if err := c.Register(t.function, t.keyType); err != nil {
		return sent, fmt.Errorf("register: %w", err)
	}
	for _, o := range w.seedOps() {
		sent.add(execClient(c, t, o))
	}
	first := w.stream(0)()
	probe := &op{kind: first.kind, keys: first.keys, labels: first.labels, nearest: first.nearest}
	sent.add(execClient(c, t, probe))
	if sent.failed > 0 {
		return sent, fmt.Errorf("%d operations failed during set-up", sent.failed)
	}
	return sent, nil
}

// setUp spawns a daemon with the workload's frozen flags, seeds it and
// connects the window's clients. The returned duration is setup_s: spawn
// to first lookup answered.
func setUp(cfg config, w workload) (*env, outcome, time.Duration, error) {
	dir, err := runDir(cfg)
	if err != nil {
		return nil, outcome{}, 0, err
	}
	e := &env{dir: dir}
	start := time.Now()
	if e.d, err = startDaemon(cfg.daemonBin, filepath.Join(dir, "s"), w.daemonFlags(dir), cfg.daemonCPUs); err != nil {
		e.close()
		return nil, outcome{}, 0, err
	}
	sent, err := seedDaemon(e.d.addr, w)
	took := time.Since(start)
	if err != nil {
		e.close()
		return nil, sent, 0, err
	}
	names := []string{"lens", "arcv"}
	for i := 0; i < connections; i++ {
		c, err := dial("unix", e.d.addr, names[i])
		if err != nil {
			e.close()
			return nil, sent, 0, err
		}
		e.clients = append(e.clients, c)
	}
	return e, sent, took, nil
}

// streamsOf returns one op stream per caller.
func streamsOf(w workload, callers int) []func() *op {
	s := make([]func() *op, callers)
	for c := range s {
		s[c] = w.stream(c)
	}
	return s
}

// runUntraced is one run that produces end-to-end numbers: inputs from
// the seed, repeated set-up, warm-up, the measured closed-loop window,
// the counter identity, and for write-evict the fixed-count durability
// phase. after, when set, runs against the live daemon once the window is
// over; the traced run uses it, and it returns what it sent so that the
// counter identity still holds.
func runUntraced(cfg config, w workload, after func(*env) outcome) (*report, error) {
	r := &report{w: w}
	if err := w.prepare(cfg.seed, cfg.small); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	r.calibNs = append(r.calibNs, calibrate())
	unpin := func() {}
	if w.pinned() {
		cfg.daemonCPUs, unpin = pinApart()
		defer unpin()
	}

	var e *env
	least, most := setupMinRepeats, setupMaxRepeats
	if cfg.small || after != nil {
		least, most = 1, 1
	}
	var spent time.Duration
	for i := 0; i < most && (i < least || spent < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		if e, r.sent, took, err = setUp(cfg, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, took.Seconds())
		spent += took
	}
	defer func() { e.close() }()
	r.calibNs = append(r.calibNs, calibrate())

	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := window / 10
	t := w.target()
	vision, isVision := w.(*appVision)
	if isVision {
		// The tuner activates after 100 puts, about a second of misses.
		warm = max(warm, 1500*time.Millisecond)
		r.sent.add(vision.runVision(e.clients, warm, nil).total)
	} else {
		r.sent.add(closedLoop(e.exec(t), streamsOf(w, w.callers()), warm, nil).total)
	}

	var err error
	if r.before, err = sampleProc(e.d.pid()); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	tick := func() {
		if cpu, err := procCPU(e.d.pid()); err == nil {
			r.sliceCPU = append(r.sliceCPU, cpu)
		}
	}
	switch {
	case isVision:
		r.vision = vision.runVision(e.clients, window, nil)
		r.sent.add(r.vision.total)
	default:
		r.closed = closedLoop(e.exec(t), streamsOf(w, w.callers()), window, tick)
		r.sent.add(r.closed.total)
	}
	r.loadgen = selfCPU() - cpu0
	if r.after, err = sampleProc(e.d.pid()); err != nil {
		return nil, err
	}
	r.calibNs = append(r.calibNs, calibrate())
	if after != nil {
		// The traced run's lone caller and open loop sleep between
		// requests and need a second thread to take the replies: they get
		// every processor back, the daemon keeps its own.
		unpin()
		r.sent.add(after(e))
	}

	if r.stats, err = e.clients[0].Stats(); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	r.check()

	if we, ok := w.(*writeEvict); ok {
		if r.durable, err = we.durabilityPhase(cfg, e); err != nil {
			return nil, fmt.Errorf("durability phase: %w", err)
		}
		if r.durable.lost > 0 {
			r.violate("acked_lost = %d: probe puts acknowledged two fsync intervals before the kill are gone", r.durable.lost)
		}
	}
	d := e.d
	e.d = nil
	if err := d.stop(); err != nil {
		r.violate("daemon shutdown: %v", err)
	}
	return r, nil
}

// latencyWindow returns the samples the latency metrics are read from.
func (r *report) latencyWindow() *windowStats {
	if r.vision != nil {
		return &r.vision.windowStats
	}
	return r.closed
}

// measured is everything the window sent.
func (r *report) measured() outcome {
	return r.latencyWindow().total
}

// completedOps is the window's operation count: requests times the
// operations each completes.
func (r *report) completedOps() int {
	return r.latencyWindow().requests * r.w.opsPerRequest()
}

// check runs the in-run correctness checks that hold on every workload.
func (r *report) check() {
	m := r.measured()
	if m.failed > 0 {
		r.violate("%d of %d operations failed, were refused or timed out", m.failed, m.lookups+m.puts)
	}
	if m.hits == 0 {
		r.violate("no lookup hit: the cache was not used")
	} else if acc := float64(m.correct) / float64(m.hits); acc < minAccuracy {
		r.violate("accuracy %.4f is below %.2f", acc, minAccuracy)
	}
	// The daemon's counters must account for every lookup it answered.
	// Its Misses already includes the dropouts, which it also reports on
	// their own.
	s, sent := r.stats, r.sent
	if got, want := s.Hits+s.Misses, int64(sent.lookups-sent.failed); got != want {
		r.violate("daemon counted hits+misses(+dropouts) = %d, the benchmark sent %d lookups that did not fail", got, want)
	}
	if int64(sent.hits) != s.Hits || int64(sent.dropouts) != s.Dropouts {
		r.violate("daemon counted %d hits and %d dropouts, clients saw %d and %d", s.Hits, s.Dropouts, sent.hits, sent.dropouts)
	}
	if v := r.vision; v != nil {
		var stages, frames int64
		for _, ns := range v.stageNs {
			stages += ns
		}
		for _, ns := range v.frameNs {
			frames += ns
		}
		if share := float64(stages) / float64(frames); share < 0.98 || share > 1.02 {
			r.violate("frame stages cover %.3f of frame time, want 1 within 0.02", share)
		}
	}
}

// minAccuracy is the floor under which a run counts as incorrect: the
// approximation must stay useful whatever else a change does.
const minAccuracy = 0.90
