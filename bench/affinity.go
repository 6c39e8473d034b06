package main

import (
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux processor affinity mask.
type cpuSet [16]uint64

func (s *cpuSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// last returns the set that holds only the highest processor of s.
func (s *cpuSet) last() cpuSet {
	var out cpuSet
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			out[i] = 1 << (63 - bits.LeadingZeros64(s[i]))
			break
		}
	}
	return out
}

func (s *cpuSet) without(b cpuSet) cpuSet {
	out := *s
	for i := range out {
		out[i] &^= b[i]
	}
	return out
}

// affinity reads (SYS_SCHED_GETAFFINITY) or writes (SYS_SCHED_SETAFFINITY)
// the mask of thread tid; 0 is the calling thread.
func affinity(call uintptr, tid int, s *cpuSet) error {
	if _, _, e := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); e != 0 {
		return e
	}
	return nil
}

// confineSelf moves every thread of this process onto s. A thread made
// later inherits the mask of the thread that made it; the second pass
// catches one made during the first.
func confineSelf(s cpuSet) {
	for pass := 0; pass < 2; pass++ {
		tasks, _ := os.ReadDir("/proc/self/task") // without /proc nothing is moved
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				_ = affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &s) // the thread may have exited
			}
		}
	}
}

// pinApart gives the daemon the highest processor this process may run
// on and the benchmark the others, with one Go scheduler thread per
// processor on each side. Left to the kernel, the threads of the two
// processes time-share both processors, and how it places them changes
// from second to second: svc-read's throughput then moves by a quarter
// within a run, against 4% when each side keeps its own processor. It
// returns the daemon's processors and the way back; on a host with one
// processor, or one that forbids pinning, it returns nil and changes
// nothing.
func pinApart() (daemonCPUs *cpuSet, undo func()) {
	var all cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &all); err != nil || all.count() < 2 {
		return nil, func() {}
	}
	d := all.last()
	mine := all.without(d)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &mine); err != nil {
		return nil, func() {} // a sandbox may forbid the call: run unpinned
	}
	confineSelf(mine)
	procs := runtime.GOMAXPROCS(mine.count())
	return &d, func() {
		confineSelf(all)
		runtime.GOMAXPROCS(procs)
	}
}

// startOn starts cmd on the processors of s with as many Go scheduler
// threads. A child inherits the mask of the thread that forks it, so the
// calling thread takes the mask for the duration of the fork.
func startOn(cmd *exec.Cmd, s *cpuSet) error {
	if s == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mine cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &mine); err != nil {
		return err
	}
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, 0, s); err != nil {
		return err
	}
	defer affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &mine) // the mask this thread had a moment ago is valid
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.count()))
	return cmd.Start()
}
