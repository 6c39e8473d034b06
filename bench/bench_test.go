package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.99, 0.50},       // too few for anything but the median
		{99, 0.99, 0.50},      // p90 would leave 9.9 beyond it
		{100, 0.99, 0.90},     // exactly ten beyond p90
		{999, 0.99, 0.90},     // p99 would leave 9.99
		{1000, 0.99, 0.99},    // exactly ten beyond p99
		{1000000, 0.99, 0.99}, // capped by the metric's name
		{10000, 1, 0.999},
		{100000, 1, 0.9999},
	} {
		if got := supportedPercentile(c.n, c.limit); got != c.want {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]int64, 1000)
	for i := range samples {
		samples[i] = int64(1000 - i) // unsorted on purpose
	}
	s := summarize(samples)
	if s.n != 1000 || s.p50 != 500 || s.tail != 990 || s.tailAt != 0.99 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 p99=990", s)
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	if s := summarize(nil); s.n != 0 || s.p50 != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// The spread -repeat prints must be the one the acceptance test computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 12, 5, 4, 9, 8, 2}, 2.75, 9.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "frame", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 10..50 counts once
		{Name: "c", Start: 60, End: 120, Parent: 0}, // clipped to its parent's end
		{Name: "a.inner", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{20, 14, 30, 60, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	dur, self := totalsByName(spans)
	if dur["frame"] != 100 || self["frame"] != 20 {
		t.Errorf("totalsByName frame = %d, %d", dur["frame"], self["frame"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.add("y", id, 0, time.Now(), 5)
	tr.end(id)
	if tr.len() != 0 {
		t.Error("nil tracer reported spans")
	}
}

// A stalled server must inflate the latency of every request that was
// due during the stall, because the open loop times from the intended
// send time. A closed loop sees the stall once per caller.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		rate  = 2000.0
		stall = 100 * time.Millisecond
	)
	newServer := func() executor {
		var mu sync.Mutex // the fake serves one request at a time
		served := 0
		return func(_ int, _ *op) outcome {
			mu.Lock()
			defer mu.Unlock()
			served++
			if served == 100 {
				time.Sleep(stall)
			}
			return outcome{lookups: 1, hits: 1, correct: 1}
		}
	}
	one := &op{kind: opLookup}
	streams := []func() *op{func() *op { return one }, func() *op { return one }}
	slow := func(s *windowStats) int {
		n := 0
		for _, ns := range s.lookupNs {
			if ns > int64(20*time.Millisecond) {
				n++
			}
		}
		return n
	}

	open := openLoop(newServer(), streams, rate, 400*time.Millisecond)
	if open.requests != 800 {
		t.Fatalf("open loop sent %d requests, want 800", open.requests)
	}
	// 200 requests were due during the stall; those due in its first 80 ms
	// waited more than 20 ms.
	if n := slow(open); n < 100 {
		t.Errorf("open loop: %d samples above 20 ms, want at least 100: the stall was not charged to the requests behind it", n)
	}
	if len(open.lateNs) != open.requests {
		t.Errorf("open loop recorded %d lateness samples for %d requests", len(open.lateNs), open.requests)
	}
}

func TestClosedLoopSeesStallOncePerCaller(t *testing.T) {
	var mu sync.Mutex
	served := 0
	exec := func(_ int, _ *op) outcome {
		start := time.Now()
		mu.Lock()
		served++
		if served == 50 {
			time.Sleep(60 * time.Millisecond)
		}
		mu.Unlock()
		return outcome{lookups: 1, lookupNs: int64(time.Since(start))}
	}
	one := &op{kind: opLookup}
	streams := []func() *op{func() *op { return one }, func() *op { return one }}
	s := closedLoop(exec, streams, 150*time.Millisecond, nil)
	n := 0
	for _, ns := range s.lookupNs {
		if ns > int64(20*time.Millisecond) {
			n++
		}
	}
	if n == 0 || n > len(streams) {
		t.Errorf("closed loop: %d samples above 20 ms, want between 1 and %d", n, len(streams))
	}
}

// The frame clock keeps the apps on the same frame, whatever each one's
// frame costs, and ends the feed for all of them at the same frame.
func TestFrameClockKeepsAppsInStep(t *testing.T) {
	const apps = 3
	clock := newFrameClock(apps)
	var mu sync.Mutex
	at := make([]int, apps) // the frame each app is working on
	frames := make([]int, apps)
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for n := 0; clock.next(a == 0 && n == 20); n++ {
				mu.Lock()
				at[a] = n
				for b := range at {
					if d := at[b] - n; d < -1 || d > 1 {
						t.Errorf("app %d is on frame %d while app %d is on frame %d", a, n, b, at[b])
					}
				}
				mu.Unlock()
				time.Sleep(time.Duration(a) * 100 * time.Microsecond) // unequal frame costs
				frames[a]++
			}
		}(a)
	}
	wg.Wait()
	for a, n := range frames {
		if n != 20 {
			t.Errorf("app %d completed %d frames, want 20: the feed must end for all apps at once", a, n)
		}
	}
}

// encodeOps serialises everything of an op stream that reaches the daemon
// or the checks.
func encodeOps(ops []*op) []byte {
	var b bytes.Buffer
	w := func(v any) { binary.Write(&b, binary.BigEndian, v) }
	for _, o := range ops {
		w(uint8(o.kind))
		w(int64(o.cost))
		w(int32(len(o.keys)))
		for _, k := range o.keys {
			w([]float64(k))
		}
		w(int32(len(o.value)))
		b.Write(o.value)
		w(o.labels)
		w(o.nearest)
	}
	return b.Bytes()
}

func streamBytes(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	if err := w.prepare(seed, true); err != nil {
		t.Fatal(err)
	}
	ops := append([]*op(nil), w.seedOps()...)
	for conn := 0; conn < connections; conn++ {
		next := w.stream(conn)
		for i := 0; i < 100; i++ {
			ops = append(ops, next())
		}
	}
	return encodeOps(ops)
}

func TestSameSeedSameStream(t *testing.T) {
	for i, w := range allWorkloads() {
		a := streamBytes(t, w, 11)
		b := streamBytes(t, allWorkloads()[i], 11)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave two different op streams", w.name())
		}
		if len(a) == 0 {
			t.Errorf("%s: empty op stream", w.name())
		}
		if w.name() == "app-vision" {
			continue // its inputs take a second to make; the other three cover this
		}
		if c := streamBytes(t, allWorkloads()[i], 12); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same op stream", w.name())
		}
	}
}

func TestStreamsDifferPerConnection(t *testing.T) {
	w := &writeEvict{}
	if err := w.prepare(3, true); err != nil {
		t.Fatal(err)
	}
	a, b := w.stream(0), w.stream(1)
	if bytes.Equal(encodeOps([]*op{a(), a(), a()}), encodeOps([]*op{b(), b(), b()})) {
		t.Error("connections 0 and 1 draw the same keys")
	}
}

// A failed operation stays in every denominator: it counts as attempted
// in fail_share and as a lookup sent in hit_rate.
func TestFailedOpsAreCounted(t *testing.T) {
	closed := &windowStats{elapsed: time.Second}
	for i := 0; i < 8; i++ {
		closed.record(outcome{lookupNs: 1000, lookups: 1, hits: 1, correct: 1})
	}
	closed.record(outcome{lookupNs: 1000, lookups: 1, failed: 1})
	closed.record(outcome{lookupNs: 1000, lookups: 1, failed: 1})
	closed.sliceOps, closed.lookupSlice = []int{10}, make([]uint16, 10) // all in the first slice
	r := &report{w: &svcRead{}, closed: closed, setupS: []float64{1}}
	m := r.endToEndValues().v
	if got := m["e2e.fail_share"]; got != 0.2 {
		t.Errorf("fail_share = %g, want 2 failed / 10 attempted = 0.2", got)
	}
	if got := m["hit_rate"]; got != 0.8 {
		t.Errorf("hit_rate = %g, want 8 hits / 10 lookups sent = 0.8", got)
	}
	if got := m["ops_per_s"]; got != 10 {
		t.Errorf("ops_per_s = %g, want 10 requests in one second", got)
	}
	r.sent = closed.total
	r.stats = StatsPayload{Hits: 8}
	r.check()
	if len(r.violated) == 0 {
		t.Error("two failed operations violated no check")
	}
}

func TestJudge(t *testing.T) {
	o := &op{labels: []uint32{7, 7, 7, 7}, keys: make([]Vector, 4)}
	var out outcome
	o.judge(0, true, false, labelValue(7, 16), 0.1, &out) // correct hit
	o.judge(1, true, false, labelValue(8, 16), 0.1, &out) // wrong label
	o.judge(2, false, true, nil, -1, &out)                // dropout
	o.judge(3, false, false, nil, 3.5, &out)              // miss
	if out.lookups != 4 || out.hits != 2 || out.correct != 1 || out.dropouts != 1 || out.misses != 1 {
		t.Errorf("judge totals = %+v", out)
	}
	recall := &op{keys: make([]Vector, 2), labels: []uint32{0, 0}, nearest: []float64{1.5, 2.5}}
	out = outcome{}
	recall.judge(0, true, false, nil, 1.5, &out)
	recall.judge(1, true, false, nil, 2.75, &out) // a farther neighbour than the true nearest
	if out.hits != 2 || out.correct != 1 {
		t.Errorf("recall judge = %+v, want 1 of 2 correct", out)
	}
}

// BENCHMARK.json at the repository root must be what this program
// measures; regenerate it with `go run . -print-spec > ../BENCHMARK.json`.
func TestSpecMatches(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Error("BENCHMARK.json differs from -print-spec; regenerate it")
	}
	defs := perLayer()
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(defs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the contract allows 16 and 128", len(endToEnd), len(defs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), defs...) {
		if seen[d.name] {
			t.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %s or its unit %q is too long", d.name, d.unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// A slow spell that covers less than half the window must not move the
// closed loop's numbers: they are medians over its slices.
func TestSliceMediansIgnoreAShortSlowSpell(t *testing.T) {
	s := &windowStats{elapsed: 5 * sliceDur, sliceOps: []int{100, 100, 40, 100, 100, 7}}
	for k, n := range s.sliceOps {
		for i := 0; i < n; i++ {
			ns := int64(1000)
			if k == 2 {
				ns = 2500
			}
			s.lookupNs = append(s.lookupNs, ns)
			s.lookupSlice = append(s.lookupSlice, uint16(k))
		}
	}
	if got := s.wholeSlices(); got != 5 {
		t.Fatalf("wholeSlices = %d, want 5: the sixth is partial", got)
	}
	if got := s.sliceMedian(func(k int) float64 { return float64(s.sliceOps[k]) }); got != 100 {
		t.Errorf("median requests per slice = %g, want 100", got)
	}
	if got := median(s.sliceLookupP50()); got != 1000 {
		t.Errorf("median of slice medians = %g ns, want 1000", got)
	}
}

// A pinned run gives the daemon the last processor and this process the
// others, and the way back restores both the masks and GOMAXPROCS.
func TestPinApartAndBack(t *testing.T) {
	var before cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &before); err != nil {
		t.Skip("no sched_getaffinity:", err)
	}
	if before.count() < 2 {
		t.Skip("one processor: nothing to split")
	}
	procs := runtime.GOMAXPROCS(0)
	daemonCPUs, undo := pinApart()
	if daemonCPUs == nil || daemonCPUs.count() != 1 {
		t.Fatalf("daemon got %v, want one processor", daemonCPUs)
	}
	if got := runtime.GOMAXPROCS(0); got != before.count()-1 {
		t.Errorf("GOMAXPROCS = %d while pinned, want %d", got, before.count()-1)
	}

	// A child started on the daemon's processors reports that mask.
	cmd := exec.Command("grep", "Cpus_allowed:", "/proc/self/status")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := startOn(cmd, daemonCPUs); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(out.String())
	mask, err := strconv.ParseUint(strings.ReplaceAll(fields[len(fields)-1], ",", ""), 16, 64)
	if err != nil || mask != daemonCPUs[0] {
		t.Errorf("child ran with mask %q, want %x", out.String(), daemonCPUs[0])
	}

	undo()
	var after cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &after); err != nil || after != before {
		t.Errorf("mask after undo = %v (%v), want %v", after, err, before)
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS = %d after undo, want %d", got, procs)
	}
}
