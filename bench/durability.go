package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// durability is the outcome of write-evict's fixed-count phase.
type durability struct {
	recoveryS float64 // restart after kill -9 to first probe lookup answered
	lost      int     // probe puts acknowledged in time and not readable after
	probes    int
	puts      int
}

const (
	durProbes = 256
	// durPuts fixes the phase's put count: every one evicts, and the
	// count does not depend on how fast the window ran.
	durPuts = 4096
)

// durabilityPhase stops the daemon gracefully, restarts it on the same
// data directory, sends a fixed number of puts and then the probe puts,
// waits two fsync intervals, kills the daemon with SIGKILL, restarts it
// and looks every probe key up.
func (w *writeEvict) durabilityPhase(cfg config, e *env) (*durability, error) {
	t := w.target()
	kt := t.keyType.Name
	addr, flags := filepath.Join(e.dir, "s"), w.daemonFlags(e.dir)
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
	d := e.d
	e.d = nil
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("graceful stop: %w", err)
	}
	var err error
	if e.d, err = startDaemon(cfg.daemonBin, addr, flags, cfg.daemonCPUs); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	c, err := dial("unix", addr, "bench-durability")
	if err != nil {
		return nil, err
	}
	// The probes must all fit beside the entries importance prefers to
	// keep, so a small cache gets fewer.
	res := &durability{probes: min(durProbes, w.capacity()/8), puts: durPuts}
	put := func(o *op) error {
		_, err := c.Put(t.function, map[string]Vector{kt: o.keys[0]}, o.value, PutOptions{Cost: o.cost})
		return err
	}
	next := w.stream(-2)
	for i := 0; i < res.puts; i++ {
		if err := put(next()); err != nil {
			c.Close()
			return nil, fmt.Errorf("put %d: %w", i, err)
		}
	}
	probes := w.probeOps(res.probes)
	for i, o := range probes {
		if err := put(o); err != nil {
			c.Close()
			return nil, fmt.Errorf("probe put %d: %w", i, err)
		}
	}
	time.Sleep(2 * weFsyncInterval)
	// A probe the cache evicted would read as lost; that would be this
	// workload's sizing, not the store, so it is an error of its own.
	if missing, err := w.readProbes(c, probes, nil); err != nil {
		c.Close()
		return nil, err
	} else if missing > 0 {
		c.Close()
		return nil, fmt.Errorf("%d of %d probes were not readable before the kill: the cache evicted them", missing, len(probes))
	}
	c.Close()
	e.d.kill()
	e.d = nil

	restart := time.Now()
	if e.d, err = startDaemon(cfg.daemonBin, addr, flags, cfg.daemonCPUs); err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	if c, err = dial("unix", addr, "bench-durability"); err != nil {
		return nil, err
	}
	defer c.Close()
	res.lost, err = w.readProbes(c, probes, func() { res.recoveryS = time.Since(restart).Seconds() })
	return res, err
}

// readProbes looks every probe key up and returns how many did not come
// back with their own value. first, when set, runs once the first lookup
// has been answered.
func (w *writeEvict) readProbes(c *Client, probes []*op, first func()) (int, error) {
	t := w.target()
	missing := 0
	for i, o := range probes {
		found := false
		// A lookup may drop out at random; ask again.
		for try := 0; try < 50; try++ {
			r, err := c.Lookup(t.function, t.keyType.Name, o.keys[0])
			if err != nil {
				return 0, fmt.Errorf("probe lookup %d: %w", i, err)
			}
			if i == 0 && try == 0 && first != nil {
				first()
			}
			if r.Dropout {
				continue
			}
			l, ok := valueLabel(r.Value)
			found = r.Hit && ok && l == o.labels[0]
			break
		}
		if !found {
			missing++
		}
	}
	return missing, nil
}
