package imaging

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Row-band parallelism for the imaging kernels.
//
// Every hot kernel in this package is a pure per-pixel (or per-row)
// function: output rows depend only on the input image, never on other
// output rows. ParallelRows exploits that by splitting the output into
// contiguous row bands and running the bands on a small shared worker
// pool sized from GOMAXPROCS. Because each band computes exactly the
// same per-pixel arithmetic the sequential loop would — same operations,
// same order, disjoint output rows — the result is bit-identical to a
// sequential run regardless of how bands are scheduled (the determinism
// guarantee the golden tests in golden_test.go pin down).
//
// Small images skip the pool entirely: below parallelMinWork work units
// the goroutine handoff costs more than the kernel, so the band function
// runs inline over the full row range.

// parallelMinWork is the sequential-fallback threshold, in approximate
// work units (output samples × kernel taps). Band handoff costs on the
// order of a microsecond; a band should carry at least tens of
// microseconds of arithmetic to amortize it. Variable so tests can
// force either path.
var parallelMinWork = 1 << 16

// bandsPerWorker over-decomposes the row range so a slow band (cache
// misses, borrowed CPU) doesn't leave the other workers idle.
const bandsPerWorker = 2

// rowTask is one row band of one ParallelRows call.
type rowTask struct {
	ctx    *parallelCtx
	y0, y1 int
}

// parallelCtx is the per-call state shared by a call's bands. Pooled:
// a context is reused only after wg.Wait has returned, which happens
// strictly after every band's Done.
type parallelCtx struct {
	fn func(y0, y1 int)
	wg sync.WaitGroup
}

var parallelCtxPool = sync.Pool{New: func() any { return new(parallelCtx) }}

var (
	workerMu    sync.Mutex
	workerCount atomic.Int32
	// workerCh is deliberately deep: ParallelRows submits at most
	// workers×bandsPerWorker bands per call, and senders helping to
	// drain keeps it from ever backing up far.
	workerCh = make(chan rowTask, 512)
)

// ensureWorkers starts imaging worker goroutines until at least n are
// running and returns the running count. Workers are never stopped;
// they block on the shared channel when idle. Tests may raise n beyond
// GOMAXPROCS to exercise the parallel path on small machines.
func ensureWorkers(n int) int {
	if c := int(workerCount.Load()); c >= n {
		return c
	}
	workerMu.Lock()
	defer workerMu.Unlock()
	for int(workerCount.Load()) < n {
		go func() {
			for t := range workerCh {
				t.ctx.fn(t.y0, t.y1)
				t.ctx.wg.Done()
			}
		}()
		workerCount.Add(1)
	}
	return int(workerCount.Load())
}

// ParallelRows runs fn over the row range [0, h), split into contiguous
// bands executed concurrently on the shared worker pool. fn must be
// safe to call concurrently for disjoint row ranges and must not call
// ParallelRows itself. work is an estimate of the total work in output
// samples × per-sample cost (e.g. kernel taps); below the sequential
// threshold, or on a single-CPU machine, fn runs inline as fn(0, h).
//
// The calling goroutine participates: it computes the last band itself
// and then helps drain the task queue while waiting, so a saturated
// pool cannot deadlock submitters.
func ParallelRows(h, work int, fn func(y0, y1 int)) {
	if h <= 0 {
		return
	}
	workers := ensureWorkers(runtime.GOMAXPROCS(0))
	if workers <= 1 || h < 2 || work < parallelMinWork {
		fn(0, h)
		return
	}
	bands := workers * bandsPerWorker
	if bands > h {
		bands = h
	}
	ctx := parallelCtxPool.Get().(*parallelCtx)
	ctx.fn = fn
	ctx.wg.Add(bands - 1)
	for b := 0; b < bands-1; b++ {
		workerCh <- rowTask{ctx: ctx, y0: b * h / bands, y1: (b + 1) * h / bands}
	}
	fn((bands-1)*h/bands, h)
	// Help drain: the queue may hold this call's bands (or another
	// caller's — running those is just as useful) while all workers are
	// busy.
	for {
		select {
		case t := <-workerCh:
			t.ctx.fn(t.y0, t.y1)
			t.ctx.wg.Done()
		default:
			ctx.wg.Wait()
			ctx.fn = nil
			parallelCtxPool.Put(ctx)
			return
		}
	}
}
