package service

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// This file keeps the server to one request path: a single lookup or put
// is executed as a batch of one, by the code a batch frame runs through,
// and costs what it did before the two paths were one.

// serveOne runs one request payload through a connection's decode,
// dispatch and encode and returns the reply it queued.
func serveOne(t *testing.T, c *serverConn, payload []byte) *Reply {
	t.Helper()
	if err := c.serve(payload); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(bytes.NewReader(c.out))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := DecodeReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	c.out, c.queued = c.out[:0], 0
	return reply
}

// TestOneSubBatchAllocs pins what the server allocates to decode,
// execute and encode one request of each lookup and put frame type. When
// single-op frames had a path of their own the counts were: MsgLookup 0,
// a one-sub MsgMultiLookup 13, MsgPut 10, a one-sub MsgMultiPut 22. A
// lookup still allocates nothing: the two of core.MultiLookup (its result
// slice and its closure) cost svc-read's daemon about a quarter of its
// CPU per lookup, so the server runs MultiLookupInto on scratch. A put may
// spend the two that MultiPut adds to Put, and a batch of one exactly what
// its single-op frame does.
func TestOneSubBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	key := vec.Vector{3, 5}
	putKeys := map[string]vec.Vector{"k": {100, 5}}
	for _, tc := range []struct {
		name   string
		single *Request
		batch  *Request
		limit  float64
	}{
		{
			name:   "lookup",
			single: &Request{Type: MsgLookup, App: "app", Function: "f", KeyType: "k", Key: key, Trace: 7},
			batch: &Request{Type: MsgMultiLookup, App: "app", Trace: 7, Value: EncodeLookupSubs([]LookupSub{
				{Function: "f", KeyType: "k", Key: key, Trace: 7},
			})},
			limit: 0,
		},
		{
			name:   "put",
			single: &Request{Type: MsgPut, App: "app", Function: "f", Keys: putKeys, Value: []byte("w"), Trace: 7},
			batch: &Request{Type: MsgMultiPut, App: "app", Trace: 7, Value: EncodePutSubs([]PutSub{
				{Function: "f", Keys: putKeys, Value: []byte("w"), Trace: 7},
			})},
			limit: 12,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var counts [2]float64
			for i, req := range []*Request{tc.single, tc.batch} {
				// A cache of its own for each, so that both frames' puts
				// meet the same growth of its tables.
				srv, _ := burstServer(t, 64)
				c := newServerConn(srv, newScriptConn(), &connState{})
				payload := EncodeRequest(req)
				if r := serveOne(t, c, payload); r.Type == MsgReplyError || (r.Type == MsgReplyLookup && !r.Hit) {
					t.Fatalf("%v frame: reply %+v, want a hit or a put", req.Type, r)
				}
				counts[i] = testing.AllocsPerRun(200, func() {
					c.serve(payload)
					c.out, c.queued = c.out[:0], 0
				})
			}
			t.Logf("allocations: single-op frame %v, one-sub batch %v", counts[0], counts[1])
			if counts[0] > tc.limit {
				t.Errorf("single-op %s: %v allocations, want at most %v", tc.name, counts[0], tc.limit)
			}
			if counts[1] != counts[0] {
				t.Errorf("one-sub batch %s: %v allocations, want the single-op frame's %v", tc.name, counts[1], counts[0])
			}
		})
	}
}

// recordingTier is a cluster tier that records every sub the server hands
// it and keeps every key, as the mesh does when it adopts a remote hit. A
// forwarded lookup hits when its key's first coordinate is odd.
type recordingTier struct {
	fwd  []LookupSub
	reps []PutSub
	kept []vec.Vector // every key handed over...
	was  []vec.Vector // ...and a copy of it taken then
}

func (r *recordingTier) keep(k vec.Vector) {
	r.kept = append(r.kept, k)
	r.was = append(r.was, k.Clone())
}

func (r *recordingTier) RemoteMultiLookup(subs []LookupSub) []LookupSubReply {
	out := make([]LookupSubReply, len(subs))
	for i, s := range subs {
		r.fwd = append(r.fwd, s)
		r.keep(s.Key)
		if len(s.Key) > 0 && int(s.Key[0])%2 == 1 {
			out[i] = LookupSubReply{Hit: true, Value: []byte("remote"), Distance: 0.25, Threshold: 0.5, Trace: s.Trace}
		}
	}
	return out
}

func (r *recordingTier) ReplicatePut(subs []PutSub) {
	for _, s := range subs {
		r.reps = append(r.reps, s)
		for _, k := range s.Keys {
			r.keep(k)
		}
	}
}

// opResult is what a caller learns from one lookup or put, in one shape
// for single-op and one-sub batch replies.
type opResult struct {
	Err             string
	Hit, Dropout    bool
	Value           string
	Dist, Threshold uint64 // Float64bits: -1 and NaN compare exactly
	MissedAt        int64
	ID, Trace       uint64
}

func singleResult(r *Reply) opResult {
	return opResult{
		Err: r.Error, Hit: r.Hit, Dropout: r.Dropout, Value: string(r.Value),
		Dist: math.Float64bits(r.Distance), Threshold: math.Float64bits(r.Threshold),
		MissedAt: r.MissedAt, ID: r.ID, Trace: r.Trace,
	}
}

func batchResult(t *testing.T, r *Reply) opResult {
	t.Helper()
	switch r.Type {
	case MsgReplyMultiLookup:
		subs, err := DecodeLookupSubReplies(r.Value)
		if err != nil || len(subs) != 1 {
			t.Fatalf("batch reply: %d subs, %v", len(subs), err)
		}
		s := subs[0]
		return opResult{
			Err: s.Error, Hit: s.Hit, Dropout: s.Dropout, Value: string(s.Value),
			Dist: math.Float64bits(s.Distance), Threshold: math.Float64bits(s.Threshold),
			MissedAt: s.MissedAt, Trace: s.Trace,
		}
	case MsgReplyMultiPut:
		subs, err := DecodePutSubReplies(r.Value)
		if err != nil || len(subs) != 1 {
			t.Fatalf("batch reply: %d subs, %v", len(subs), err)
		}
		return opResult{Err: subs[0].Error, ID: subs[0].ID, Trace: subs[0].Trace}
	}
	t.Fatalf("batch reply %+v", r)
	return opResult{}
}

// TestSingleOpMatchesBatchOfOne is a differential test of the two frame
// shapes: two servers on identically seeded caches that share one virtual
// clock, with dropout on, take the same seeded stream of lookups and puts,
// one as single-op frames and the other as one-sub batch frames. The
// stream covers hits, misses, dropouts, unknown-function errors, puts and
// remote hits. After every op the replies must agree to the bit, and so
// must the subs each server handed its cluster tier, the trace of a
// forwarded miss included: it is the request's when the cache recorded
// none. At the end every key a tier kept must still hold what it held
// when handed over, so a key in the connection's scratch that leaked into
// the tier fails the test.
func TestSingleOpMatchesBatchOfOne(t *testing.T) {
	for _, attached := range []bool{false, true} {
		t.Run(fmt.Sprintf("telemetry=%v", attached), func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(1000, 0))
			newSide := func() (*serverConn, *recordingTier) {
				cfg := core.Config{DropoutRate: 0.15, Seed: 42, Clock: clk, Tuner: core.TunerConfig{WarmupZ: 1}}
				if attached {
					cfg.Telemetry = telemetry.New()
				}
				srv := NewServer(core.New(cfg))
				if err := srv.Cache().RegisterFunction("f", core.KeyTypeSpec{Name: "k"}); err != nil {
					t.Fatal(err)
				}
				tier := &recordingTier{}
				srv.SetRemote(tier)
				return newServerConn(srv, newScriptConn(), &connState{}), tier
			}
			single, singleTier := newSide()
			batch, batchTier := newSide()

			rng := rand.New(rand.NewSource(7))
			seen := map[string]int{}
			for i := 0; i < 1500; i++ {
				clk.Advance(time.Millisecond)
				fn := "f"
				if rng.Intn(20) == 0 {
					fn = "nope"
				}
				key := vec.Vector{float64(rng.Intn(24)), float64(rng.Intn(3)) * 0.1}
				trace := uint64(i + 1)
				var one, sub *Request
				if rng.Intn(3) == 0 {
					keys := map[string]vec.Vector{"k": key}
					value := []byte(fmt.Sprintf("v%d", int(key[0])))
					one = &Request{Type: MsgPut, App: "app", Function: fn, Keys: keys, Value: value, Cost: 5, Trace: trace}
					sub = &Request{Type: MsgMultiPut, App: "app", Trace: trace, Value: EncodePutSubs([]PutSub{
						{Function: fn, Keys: keys, Value: value, Cost: 5, Trace: trace},
					})}
				} else {
					one = &Request{Type: MsgLookup, App: "app", Function: fn, KeyType: "k", Key: key, Trace: trace}
					sub = &Request{Type: MsgMultiLookup, App: "app", Trace: trace, Value: EncodeLookupSubs([]LookupSub{
						{Function: fn, KeyType: "k", Key: key, Trace: trace},
					})}
				}
				fwdA, fwdB, repA, repB := len(singleTier.fwd), len(batchTier.fwd), len(singleTier.reps), len(batchTier.reps)
				a := singleResult(serveOne(t, single, EncodeRequest(one)))
				b := batchResult(t, serveOne(t, batch, EncodeRequest(sub)))
				if a != b {
					t.Fatalf("op %d (%v %v): single-op frame drew %+v, one-sub batch %+v", i, one.Type, key, a, b)
				}
				checkForwarded(t, i, trace, singleTier.fwd[fwdA:], batchTier.fwd[fwdB:])
				checkReplicated(t, i, singleTier.reps[repA:], batchTier.reps[repB:])

				switch {
				case a.Err != "":
					seen["error"]++
				case one.Type == MsgPut:
					seen["put"]++
				case a.Dropout:
					seen["dropout"]++
				case a.Hit && len(singleTier.fwd) > fwdA:
					seen["remote hit"]++
				case a.Hit:
					seen["hit"]++
				default:
					seen["miss"]++
				}
			}
			for _, kind := range []string{"hit", "miss", "dropout", "error", "put", "remote hit"} {
				if seen[kind] == 0 {
					t.Errorf("the stream drew no %s: %v", kind, seen)
				}
			}
			for _, tier := range []*recordingTier{singleTier, batchTier} {
				for i, k := range tier.kept {
					if !vecBitsEqual(k, tier.was[i]) {
						t.Fatalf("key %d the tier kept was %v when handed over and is %v now: the server reused its memory", i, tier.was[i], k)
					}
				}
			}
		})
	}
}

// checkForwarded compares the lookups two servers forwarded for one op.
func checkForwarded(t *testing.T, op int, trace uint64, a, b []LookupSub) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("op %d: single-op frame forwarded %d lookups, one-sub batch %d", op, len(a), len(b))
	}
	for i := range a {
		if a[i].Function != b[i].Function || a[i].KeyType != b[i].KeyType || !vecBitsEqual(a[i].Key, b[i].Key) || a[i].Trace != b[i].Trace {
			t.Fatalf("op %d: single-op frame forwarded %+v, one-sub batch %+v", op, a[i], b[i])
		}
		if a[i].Trace != trace {
			t.Fatalf("op %d: miss forwarded under trace %d, want the request's %d", op, a[i].Trace, trace)
		}
	}
}

// checkReplicated compares the puts two servers offered for replication
// for one op.
func checkReplicated(t *testing.T, op int, a, b []PutSub) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("op %d: single-op frame replicated %d puts, one-sub batch %d", op, len(a), len(b))
	}
	for i := range a {
		same := a[i].Function == b[i].Function && bytes.Equal(a[i].Value, b[i].Value) && a[i].Trace == b[i].Trace &&
			a[i].Cost == b[i].Cost && a[i].Size == b[i].Size && a[i].TTL == b[i].TTL && len(a[i].Keys) == len(b[i].Keys)
		for kt, k := range a[i].Keys {
			same = same && vecBitsEqual(k, b[i].Keys[kt])
		}
		if !same {
			t.Fatalf("op %d: single-op frame replicated %+v, one-sub batch %+v", op, a[i], b[i])
		}
	}
}

func vecBitsEqual(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOneDoorToTheCacheInServer parses the package's non-test files and
// holds the server to one request path: in methods of *Server there is
// exactly one call each of cache.MultiLookupInto, cache.MultiPut,
// remote.RemoteMultiLookup and remote.ReplicatePut, and none of the
// cache's Lookup, LookupOpts, Put or allocating MultiLookup. A second copy
// of the lookup or put path cannot come back without failing here.
func TestOneDoorToTheCacheInServer(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"cache.MultiLookupInto": 1, "cache.MultiPut": 1,
		"remote.RemoteMultiLookup": 1, "remote.ReplicatePut": 1,
	}
	banned := map[string]bool{
		"cache.Lookup": true, "cache.LookupOpts": true, "cache.Put": true, "cache.MultiLookup": true,
	}
	got := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isServerMethod(fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field, ok := sel.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				what := field.Sel.Name + "." + sel.Sel.Name
				if banned[what] {
					t.Errorf("%s: %s in Server.%s: lookups and puts reach the cache through MultiLookupInto and MultiPut only", fset.Position(call.Pos()), what, fn.Name.Name)
				}
				if _, ok := want[what]; ok {
					got[what]++
				}
				return true
			})
		}
	}
	for what, n := range want {
		if got[what] != n {
			t.Errorf("%d calls of %s in *Server methods, want %d: is there a second request path?", got[what], what, n)
		}
	}
}

// isServerMethod reports whether fn has a *Server receiver.
func isServerMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Server"
}
