package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sliceDur is the length of the slices a closed loop is cut into. The
// host slows down for seconds at a time; a metric read as the median over
// slices ignores a spell that covers less than half the window.
const sliceDur = time.Second

// windowStats is what one measured loop produced.
type windowStats struct {
	lookupNs []int64 // one sample per request that carried lookups
	putNs    []int64 // one sample per put (or MultiPut frame)
	total    outcome
	requests int
	elapsed  time.Duration

	// Closed loop only.
	lookupSlice []uint16 // the slice each lookupNs sample completed in
	sliceOps    []int    // requests completed in each slice

	// Open loop only.
	lateNs          []int64 // how late each request left the generator
	peakOutstanding int
	backlogGrowing  bool
}

func (s *windowStats) record(o outcome) {
	if o.lookups > 0 {
		s.lookupNs = append(s.lookupNs, o.lookupNs)
	}
	if o.putNs > 0 {
		s.putNs = append(s.putNs, o.putNs)
	}
	s.total.add(o)
	s.requests++
}

func (s *windowStats) merge(b *windowStats) {
	s.lookupNs = append(s.lookupNs, b.lookupNs...)
	s.putNs = append(s.putNs, b.putNs...)
	s.lateNs = append(s.lateNs, b.lateNs...)
	s.lookupSlice = append(s.lookupSlice, b.lookupSlice...)
	for k, n := range b.sliceOps {
		for len(s.sliceOps) <= k {
			s.sliceOps = append(s.sliceOps, 0)
		}
		s.sliceOps[k] += n
	}
	s.total.add(b.total)
	s.requests += b.requests
}

// wholeSlices is how many full slices the loop ran.
func (s *windowStats) wholeSlices() int {
	return min(int(s.elapsed/sliceDur), len(s.sliceOps))
}

// sliceMedian is the median over the whole slices of f(slice).
func (s *windowStats) sliceMedian(f func(k int) float64) float64 {
	v := make([]float64, s.wholeSlices())
	for k := range v {
		v[k] = f(k)
	}
	return median(v)
}

// sliceLookupP50 is the median lookup time of each whole slice, in ns.
func (s *windowStats) sliceLookupP50() []float64 {
	by := make([][]int64, s.wholeSlices())
	for i, k := range s.lookupSlice {
		if int(k) < len(by) {
			by[k] = append(by[k], s.lookupNs[i])
		}
	}
	out := make([]float64, len(by))
	for k := range by {
		out[k] = summarize(by[k]).p50
	}
	return out
}

// An executor sends one op over connection conn and reports the outcome.
type executor func(conn int, o *op) outcome

// closedLoop runs one caller per stream: each sends its next request only
// when the previous one has completed, until dur has passed. tick, when
// set, is called at the start and at the end of every slice, for samples
// that have to be taken while the loop runs.
func closedLoop(exec executor, streams []func() *op, dur time.Duration, tick func()) *windowStats {
	parts := make([]windowStats, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	if tick != nil {
		tick()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= int(dur/sliceDur); k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * sliceDur)))
				tick()
			}
		}()
	}
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for time.Now().Before(deadline) {
				out := exec(c, streams[c]())
				k := int(time.Since(start) / sliceDur)
				for len(p.sliceOps) <= k {
					p.sliceOps = append(p.sliceOps, 0)
				}
				p.sliceOps[k]++
				if out.lookups > 0 {
					p.lookupSlice = append(p.lookupSlice, uint16(k))
				}
				p.record(out)
			}
		}(c)
	}
	wg.Wait()
	all := &windowStats{elapsed: time.Since(start)}
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

// openLoop sends request i at start + i/rate whether or not earlier ones
// have completed, round-robin over the streams, and times each from the
// moment it was due: a stall in the server therefore delays, and is
// charged to, every request that was due during it.
func openLoop(exec executor, streams []func() *op, rate float64, dur time.Duration) *windowStats {
	var (
		mu          sync.Mutex
		all         = &windowStats{}
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	// The backlog is judged on the last two tenths of the schedule.
	var prevSum, lastSum, prevN, lastN int64
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		late := int64(time.Since(due))
		conn := i % len(streams)
		o := streams[conn]()
		out := outstanding.Add(1)
		if int(out) > all.peakOutstanding {
			all.peakOutstanding = int(out) // only this goroutine writes it
		}
		switch {
		case i >= n*9/10:
			lastSum, lastN = lastSum+out, lastN+1
		case i >= n*8/10:
			prevSum, prevN = prevSum+out, prevN+1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := exec(conn, o)
			res.lookupNs = int64(time.Since(due))
			outstanding.Add(-1)
			mu.Lock()
			all.record(res)
			all.lateNs = append(all.lateNs, late)
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	if prevN > 0 && lastN > 0 {
		prev, last := float64(prevSum)/float64(prevN), float64(lastSum)/float64(lastN)
		all.backlogGrowing = last > 2*prev+8
	}
	return all
}

// waitUntil sleeps until t in the kernel. The Go runtime rounds a timer
// below a millisecond up to a millisecond when the process is otherwise
// idle, which is ten round trips; nanosleep wakes within the kernel's
// 50 microsecond timer slack and holds no processor while it waits.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only makes this request early
	}
}
