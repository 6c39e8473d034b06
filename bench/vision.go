package main

import (
	"sync"
	"time"
)

// visionStats is an app-vision window: the wire-level samples every
// workload has, plus per-frame and per-stage times.
type visionStats struct {
	windowStats
	frameNs  []int64 // Potluck frames, keygen through put
	missNs   []int64 // the subset that missed and computed
	nativeNs []int64 // native frames: classify only
	stageNs  [4]int64
}

// frameClock delivers the feed's next frame to every app at once, as a
// camera does: an app that has finished its frame waits until the others
// have. Without it the apps drift apart by hundreds of frames (a miss
// costs seventy times a hit), how far depends on the host's timing, and
// the cross-application hit rate moves by five points between runs.
type frameClock struct {
	mu      sync.Mutex
	tick    *sync.Cond
	apps    int
	waiting int
	frame   int
	expired bool // an app reached its deadline before the coming tick
	goesOn  bool // the last tick's verdict, fixed until every app has read it
}

func newFrameClock(apps int) *frameClock {
	c := &frameClock{apps: apps}
	c.tick = sync.NewCond(&c.mu)
	return c
}

// next blocks until every app has called it for this frame and reports
// whether the feed goes on: it ends for all apps together, at the first
// frame that any of them reached after its deadline. The verdict is fixed
// when the tick happens: an app that is slow to wake must not see the
// deadline another app has already reported for the tick after.
func (c *frameClock) next(expired bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expired = c.expired || expired
	c.waiting++
	if c.waiting == c.apps {
		c.waiting = 0
		c.frame++
		c.goesOn = !c.expired
		c.tick.Broadcast()
		return c.goesOn
	}
	for frame := c.frame; frame == c.frame; {
		c.tick.Wait()
	}
	return c.goesOn
}

var visionStages = [4]string{"keygen", "lookup", "compute", "put"}

// runVision drives the two apps, lens and arcv, for dur. Each owns one
// connection and walks the shared feed from its own offset, a frame per
// tick of the frame clock. After every avPotluckRun frames through the
// cache comes a tick of avNativeRun native frames (classify only), so
// the baseline is measured in the same process under the same host
// conditions. With a tracer, every frame and stage is also recorded as a
// span.
func (w *appVision) runVision(clients []*Client, dur time.Duration, tr *tracer) *visionStats {
	parts := make([]visionStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	clock := newFrameClock(len(clients))
	for a := range clients {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			st := &parts[a]
			pos := a * avArcvOffset
			for n := 0; clock.next(!time.Now().Before(deadline)); n++ {
				if n%(avPotluckRun+1) < avPotluckRun {
					w.potluckFrame(clients[a], a, pos, st, tr)
					pos++
					continue
				}
				for k := 0; k < avNativeRun; k++ {
					frame := w.frames[(pos+k)%len(w.frames)]
					t0 := time.Now()
					w.clf.Classify(frame)
					st.nativeNs = append(st.nativeNs, int64(time.Since(t0)))
				}
			}
		}(a)
	}
	wg.Wait()
	all := &visionStats{}
	all.elapsed = time.Since(start)
	for i := range parts {
		p := &parts[i]
		all.merge(&p.windowStats)
		all.frameNs = append(all.frameNs, p.frameNs...)
		all.missNs = append(all.missNs, p.missNs...)
		all.nativeNs = append(all.nativeNs, p.nativeNs...)
		for s := range all.stageNs {
			all.stageNs[s] += p.stageNs[s]
		}
	}
	return all
}

// potluckFrame is one frame through the cache as app a sees it: key
// generation, lookup and, on a miss, classification and put.
func (w *appVision) potluckFrame(c *Client, a, pos int, st *visionStats, tr *tracer) {
	t := w.target()
	kt := t.keyType.Name
	i := pos % len(w.frames)
	frame := w.frames[i]
	req := a<<24 | pos
	var out outcome
	root := tr.begin("frame", -1, req)
	t0 := time.Now()
	key := w.ext.Extract(frame).Key
	t1 := time.Now()
	res, err := c.Lookup(t.function, kt, key)
	t2 := time.Now()
	t3, t4 := t2, t2
	o := op{labels: []uint32{w.native[i]}}
	if err != nil {
		out.lookups, out.failed = 1, 1
	} else {
		o.judge(0, res.Hit, res.Dropout, res.Value, res.Distance, &out)
		out.thresh = res.Threshold
	}
	if err == nil && !res.Hit {
		label, _ := w.clf.Classify(frame)
		t3 = time.Now()
		// The value is the label alone: the tuner compares values for
		// equality, so an app tag would make every cross-app neighbour
		// look like a wrong result.
		if _, err := c.Put(t.function, map[string]Vector{kt: key}, labelValue(uint32(label), 4), PutOptions{Cost: t3.Sub(t2)}); err != nil {
			out.failed++
		}
		t4 = time.Now()
		out.puts = 1
		out.putNs = int64(t4.Sub(t3))
		st.missNs = append(st.missNs, int64(t4.Sub(t0)))
	}
	// The stage boundaries; a hit's compute and put are empty.
	marks := [5]time.Time{t0, t1, t2, t3, t4}
	for s, name := range visionStages {
		d := int64(marks[s+1].Sub(marks[s]))
		st.stageNs[s] += d
		if d > 0 {
			tr.add(name, root, req, marks[s], d)
		}
	}
	tr.end(root)
	out.lookupNs = int64(t2.Sub(t1))
	st.record(out)
	st.frameNs = append(st.frameNs, int64(t4.Sub(t0)))
}
