package main

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// An op is one generated request. The workloads differ in their key
// streams and op mixes, not in what an op does, so one model serves the
// closed and open loops and the three traced passes.
type opKind uint8

const (
	// opLookup is one lookup; when value is set, a miss or dropout is
	// followed by a put of the computed result (Figure 3's protocol).
	opLookup opKind = iota
	// opMultiLookup is one MultiLookup frame over all keys.
	opMultiLookup
	// opMultiPut is one MultiPut frame storing value i of values under
	// key i.
	opMultiPut
)

type op struct {
	kind  opKind
	keys  []Vector
	value []byte        // opLookup: result to put on a miss; nil = never put
	cost  time.Duration // declared compute cost of the result
	// labels holds each key's ground-truth label, the first four bytes of
	// the value a correct hit returns. For opMultiPut it is what is stored.
	labels []uint32
	// nearest, when set, holds each key's true nearest-neighbour distance
	// from a linear scan; a hit is then correct when it reports exactly
	// that distance (recall@1).
	nearest []float64
}

// outcome is what executing one op produced.
type outcome struct {
	lookupNs int64 // whole frame for opMultiLookup
	putNs    int64 // 0 when no put was sent
	lookups  int   // sub-lookups sent
	hits     int
	correct  int // hits that agree with ground truth
	dropouts int
	misses   int
	puts     int
	failed   int     // sub-operations that errored
	thresh   float64 // threshold reported by the last lookup
}

func (o *outcome) add(b outcome) {
	o.lookups += b.lookups
	o.hits += b.hits
	o.correct += b.correct
	o.dropouts += b.dropouts
	o.misses += b.misses
	o.puts += b.puts
	o.failed += b.failed
	if b.lookups > 0 {
		o.thresh = b.thresh
	}
}

// labelValue builds a value of size bytes whose first four carry label.
func labelValue(label uint32, size int) []byte {
	if size < 4 {
		size = 4
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint32(v, label)
	for i := 4; i < size; i++ {
		v[i] = byte(label) + byte(i)
	}
	return v
}

func valueLabel(v []byte) (uint32, bool) {
	if len(v) < 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v), true
}

// judge scores one answered sub-lookup against the op's ground truth.
func (o *op) judge(i int, hit, dropout bool, value []byte, dist float64, out *outcome) {
	out.lookups++
	switch {
	case dropout:
		out.dropouts++
	case !hit:
		out.misses++
	default:
		out.hits++
		if o.nearest != nil {
			if math.Abs(dist-o.nearest[i]) <= 1e-9 {
				out.correct++
			}
		} else if l, ok := valueLabel(value); ok && l == o.labels[i] {
			out.correct++
		}
	}
}

// target names where ops go: the function and key type every workload
// registers once.
type target struct {
	function string
	keyType  KeyTypeDef
}

// execClient runs one op through the wire protocol.
func execClient(c *Client, t target, o *op) outcome {
	var out outcome
	kt := t.keyType.Name
	switch o.kind {
	case opLookup:
		start := time.Now()
		res, err := c.Lookup(t.function, kt, o.keys[0])
		out.lookupNs = int64(time.Since(start))
		if err != nil {
			out.lookups, out.failed = 1, 1
			return out
		}
		o.judge(0, res.Hit, res.Dropout, res.Value, res.Distance, &out)
		out.thresh = res.Threshold
		if !res.Hit && o.value != nil {
			start = time.Now()
			_, err := c.Put(t.function, map[string]Vector{kt: o.keys[0]}, o.value, PutOptions{Cost: o.cost})
			out.putNs = int64(time.Since(start))
			out.puts = 1
			if err != nil {
				out.failed++
			}
		}
	case opMultiLookup:
		subs := make([]LookupSub, len(o.keys))
		for i, k := range o.keys {
			subs[i] = LookupSub{Function: t.function, KeyType: kt, Key: k}
		}
		start := time.Now()
		res, err := c.MultiLookup(subs)
		out.lookupNs = int64(time.Since(start))
		if err != nil {
			out.lookups, out.failed = len(subs), len(subs)
			return out
		}
		for i, r := range res {
			if r.Err != nil {
				out.lookups++
				out.failed++
				continue
			}
			o.judge(i, r.Hit, r.Dropout, r.Value, r.Distance, &out)
			out.thresh = r.Threshold
		}
	case opMultiPut:
		subs := make([]PutSub, len(o.keys))
		for i, k := range o.keys {
			subs[i] = PutSub{Function: t.function, Keys: map[string]Vector{kt: k},
				Value: labelValue(o.labels[i], 4), Cost: int64(o.cost)}
		}
		start := time.Now()
		res, err := c.MultiPut(subs)
		out.putNs = int64(time.Since(start))
		out.puts = len(subs)
		if err != nil {
			out.failed = len(subs)
			return out
		}
		for _, r := range res {
			if r.Err != nil {
				out.failed++
			}
		}
	}
	return out
}

// execCore runs the same op directly on a core.Cache, through the calls
// the daemon's handlers make after decoding: Lookup and Put for single
// operations, MultiLookup and MultiPut (core's own worker fan-out) for
// batches.
func execCore(c *Cache, t target, o *op) outcome {
	var out outcome
	kt := t.keyType.Name
	switch o.kind {
	case opLookup:
		start := time.Now()
		res, err := c.Lookup(t.function, kt, o.keys[0])
		out.lookupNs = int64(time.Since(start))
		if err != nil {
			out.lookups, out.failed = 1, 1
			return out
		}
		v, _ := res.Value.([]byte)
		o.judge(0, res.Hit, res.Dropout, v, res.Distance, &out)
		out.thresh = res.Threshold
		if !res.Hit && o.value != nil {
			start = time.Now()
			_, err := c.Put(t.function, PutRequest{Keys: map[string]Vector{kt: o.keys[0]}, Value: o.value, Cost: o.cost, App: "bench"})
			out.putNs = int64(time.Since(start))
			out.puts = 1
			if err != nil {
				out.failed++
			}
		}
	case opMultiLookup:
		batch := make([]BatchLookup, len(o.keys))
		for i, k := range o.keys {
			batch[i] = BatchLookup{Function: t.function, KeyType: kt, Key: k}
		}
		start := time.Now()
		res := c.MultiLookup(batch)
		out.lookupNs = int64(time.Since(start))
		for i, r := range res {
			if r.Err != nil {
				out.lookups++
				out.failed++
				continue
			}
			v, _ := r.Value.([]byte)
			o.judge(i, r.Hit, r.Dropout, v, r.Distance, &out)
			out.thresh = r.Threshold
		}
	case opMultiPut:
		batch := make([]BatchPut, len(o.keys))
		for i, k := range o.keys {
			batch[i] = BatchPut{Function: t.function, Req: PutRequest{Keys: map[string]Vector{kt: k},
				Value: labelValue(o.labels[i], 4), Cost: o.cost, App: "bench"}}
		}
		start := time.Now()
		res := c.MultiPut(batch)
		out.putNs = int64(time.Since(start))
		out.puts = len(batch)
		for _, r := range res {
			if r.Err != nil {
				out.failed++
			}
		}
	}
	return out
}

// execIndex runs the op's keys on a bare index: the probe a lookup makes,
// without the cache around it. A batch is probed from as many goroutines
// as core's fan-out uses on this host; reads of an index may overlap.
// Puts are not replayed here: a put's index work (a probe for the tuner,
// an insert, a remove on eviction) is inside core's number. The first
// skip keys are not probed.
func execIndex(idx Index, o *op, skip int) outcome {
	var out outcome
	if o.kind == opMultiPut {
		return out
	}
	keys := o.keys[min(skip, len(o.keys)):]
	start := time.Now()
	if len(keys) <= 1 {
		for _, k := range keys {
			idx.Nearest(k)
		}
	} else {
		// The shape of core's batch fan-out: workers pull the next key.
		var wg sync.WaitGroup
		var next atomic.Int64
		for worker := 0; worker < connections; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
					idx.Nearest(keys[i])
				}
			}()
		}
		wg.Wait()
	}
	out.lookups = len(o.keys)
	out.lookupNs = int64(time.Since(start))
	return out
}
