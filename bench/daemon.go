package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child potluckd on a Unix socket inside the run's
// directory. No TCP port is used, so parallel runs cannot collide.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
	done chan struct{} // closed once the child has been reaped
	err  error         // Wait's result, valid after done
}

// children tracks every live child so that any exit path, a signal
// included, can kill and reap them.
var children struct {
	sync.Mutex
	m map[*daemon]struct{}
}

// startDaemon spawns bin with the workload's frozen flags, on the
// processors of cpus when it is set, and waits until its socket accepts a
// connection.
func startDaemon(bin, addr string, flags []string, cpus *cpuSet) (*daemon, error) {
	d := &daemon{addr: addr, log: new(bytes.Buffer), done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-network", "unix", "-addr", addr}, flags...)...)
	d.cmd.Stderr = d.log
	// The kernel kills the child if this process dies without running its
	// own clean-up (SIGKILL, a runtime crash).
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOn(d.cmd, cpus); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	children.Lock()
	if children.m == nil {
		children.m = make(map[*daemon]struct{})
	}
	children.m[d] = struct{}{}
	children.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if c, err := net.Dial("unix", addr); err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.done:
			d.forget()
			return nil, fmt.Errorf("daemon exited before listening: %v\n%s", d.err, d.log)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon did not listen on %s within 20s\n%s", addr, d.log)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) forget() {
	children.Lock()
	delete(children.m, d)
	children.Unlock()
}

// stop asks for a graceful shutdown (the daemon drains, takes its final
// snapshot and unlinks the socket) and reaps the child; it falls back to
// SIGKILL after ten seconds.
func (d *daemon) stop() error {
	defer d.forget()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("daemon ignored SIGTERM for 10s")
	}
	var ee *exec.ExitError
	if d.err != nil && !errors.As(d.err, &ee) {
		return d.err
	}
	return nil
}

// kill is `kill -9` followed by a wait.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if already exited
	<-d.done
	d.forget()
}

func killAllChildren() {
	children.Lock()
	ds := make([]*daemon, 0, len(children.m))
	for d := range children.m {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// procSample is what /proc says about a process at one instant.
type procSample struct {
	cpu         time.Duration // user+sys of all threads
	hwmKB       int64         // VmHWM, the peak resident set
	ctxSwitches int64         // voluntary+involuntary, all threads
}

const clockTick = 100 // USER_HZ on Linux: /proc/<pid>/stat counts in 1/100 s

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := filepath.Join("/proc", strconv.Itoa(pid))
	var err error
	if s.cpu, err = procCPU(pid); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(base, "status"))
	if err != nil {
		return s, err
	}
	s.hwmKB = statusField(status, "VmHWM:")

	tasks, err := os.ReadDir(filepath.Join(base, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		// A thread may exit between the listing and the read.
		if b, err := os.ReadFile(filepath.Join(base, "task", t.Name(), "status")); err == nil {
			s.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	return s, nil
}

func statusField(status []byte, name string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, name) {
			f := strings.Fields(line[len(name):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
