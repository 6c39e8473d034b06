package main

import (
	"math"
	"time"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the metrics every workload reports and the driver
// bounds. BENCHMARK.json repeats the list; TestSpecMatches keeps the two
// equal.
//
// A bound must hold the spread (quartile distance over median, ten seeds)
// of every workload with room to spare, or the driver refuses the
// benchmark. On this two-core shared host the four timings spread by 0.03
// to 0.12 within a set of ten runs, by up to 0.19 on a bad evening, and a
// slow spell of the host can set two sets 0.13 apart (0.25 for setup_s),
// so they take the driver's cap. hit_rate follows the seed on app-vision
// (0.03) and accuracy too (0.011); the daemon's peak memory follows its
// collector's timing (0.08 on svc-read). README.md, "Steadiness", has the
// measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lookup_p50_us", "us", "lower", 0.25},
	{"hit_rate", "ratio", "higher", 0.10},
	{"accuracy", "ratio", "higher", 0.04},
	{"daemon_rss_mb", "MB", "lower", 0.25},
	{"daemon_cpu_us_per_op", "us", "lower", 0.25},
}

// demoted are the end-to-end metrics of the issue that one workload
// alone produces, that are zero when all is well, or that do not repeat
// within any bound the driver allows (the p99). The driver wants every
// end-to-end metric from every workload, never zero and steady, so they
// are reported with the per-layer metrics under e2e.<name>; a workload
// they do not apply to reports 0.
var demoted = []metricDef{
	{"e2e.lookup_p99_us", "us", "lower", 0},
	{"e2e.put_p50_us", "us", "lower", 0},
	{"e2e.put_p99_us", "us", "lower", 0},
	{"e2e.frame_mean_ms", "ms", "lower", 0},
	{"e2e.frame_p50_ms", "ms", "lower", 0},
	{"e2e.speedup_vs_native", "ratio", "higher", 0},
	{"e2e.recovery_s", "s", "lower", 0},
	{"e2e.acked_lost", "count", "lower", 0},
	{"e2e.fail_share", "ratio", "lower", 0},
}

// values maps metric names to measurements; notes carries the sample
// count and percentile printed beside a timing.
type values struct {
	v     map[string]float64
	notes map[string]string
}

func newValues() *values {
	return &values{v: make(map[string]float64), notes: make(map[string]string)}
}

func (m *values) set(name string, v float64) { m.v[name] = v }

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

func (m *values) timing(p50, tail string, t timing, conv func(float64) float64) {
	m.set(p50, conv(t.p50))
	m.notes[p50] = note(t, 0.5)
	if tail != "" {
		m.set(tail, conv(t.tail))
		m.notes[tail] = note(t, t.tailAt)
	}
}

// endToEndValues computes every end-to-end metric of the issue, demoted
// ones included, from one untraced run.
func (r *report) endToEndValues() *values {
	m := newValues()
	sent := r.measured()
	lat := r.latencyWindow()

	m.set("setup_s", median(r.setupS))
	m.timing("lookup_p50_us", "e2e.lookup_p99_us", summarize(lat.lookupNs), us)
	m.set("hit_rate", ratio(sent.hits, sent.lookups))
	m.set("accuracy", ratio(sent.correct, sent.hits))
	m.set("daemon_rss_mb", float64(r.after.hwmKB)/1024)
	m.set("daemon_cpu_us_per_op", float64((r.after.cpu-r.before.cpu).Microseconds())/float64(r.completedOps()))
	m.set("e2e.fail_share", ratio(sent.failed, sent.lookups+sent.puts))

	if v := r.vision; v != nil {
		// Frames per second of the time the apps spent on Potluck
		// frames, which leaves out the native frames (the baseline) and
		// the wait for the frame clock.
		frames, native := summarize(v.frameNs), summarize(v.nativeNs)
		m.set("ops_per_s", float64(connections)*1e9/frames.mean)
		m.set("e2e.frame_mean_ms", ms(frames.mean))
		m.timing("e2e.frame_p50_ms", "", frames, ms)
		m.set("e2e.speedup_vs_native", native.mean/frames.mean)
	} else {
		c := r.closed
		per := float64(r.w.opsPerRequest())
		m.set("ops_per_s", float64(c.requests)*per/c.elapsed.Seconds())
		// With enough of them (a smoke run is too short), the closed
		// loop's numbers are medians over its one-second slices, so that
		// a slow spell of the host, which lasts seconds, moves them only
		// when it covers half the window.
		if c.wholeSlices() >= 3 && len(r.sliceCPU) > c.wholeSlices() {
			m.set("ops_per_s", c.sliceMedian(func(k int) float64 { return float64(c.sliceOps[k]) * per / sliceDur.Seconds() }))
			m.set("lookup_p50_us", us(median(c.sliceLookupP50())))
			m.set("daemon_cpu_us_per_op", c.sliceMedian(func(k int) float64 {
				return float64((r.sliceCPU[k+1] - r.sliceCPU[k]).Microseconds()) / (float64(c.sliceOps[k]) * per)
			}))
		}
	}
	m.timing("e2e.put_p50_us", "e2e.put_p99_us", summarize(lat.putNs), us)
	if d := r.durable; d != nil {
		m.set("e2e.recovery_s", d.recoveryS)
		m.set("e2e.acked_lost", float64(d.lost))
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed CPU kernel, about five milliseconds of integer
// work that touches no memory. Taken before, between and after the
// windows, it shows whether the host's speed moved during the run.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = math.Min(best, float64(time.Since(start)))
	}
	return best
}

// calibSpread is the range of the calibration samples as a share of
// their median; above ten per cent the run is marked noisy.
func calibSpread(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	return (hi - lo) / median(samples)
}
