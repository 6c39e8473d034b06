package service

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// startServer runs a server on a Unix socket in a temp dir and returns
// its address.
func startServer(t *testing.T, cfg core.Config) (*Server, string) {
	t.Helper()
	cache := core.New(cfg)
	srv := NewServer(cache)
	sock := filepath.Join(t.TempDir(), "potluck.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return srv, sock
}

func testConfig() core.Config {
	return core.Config{
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	}
}

func TestRoundTripRequestEncoding(t *testing.T) {
	req := &Request{
		Type:     MsgPut,
		App:      "lens",
		Function: "recognize",
		KeyType:  "kt",
		Key:      vec.Vector{1.5, -2.5},
		Keys: map[string]vec.Vector{
			"a": {1, 2},
			"b": {3},
		},
		KeyTypes: []KeyTypeDef{{Name: "a", Metric: "euclidean", Index: "kdtree", Dim: 4}},
		Value:    []byte("result"),
		Cost:     123456789,
		Size:     42,
		TTL:      int64(time.Hour),
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != req.App || got.Function != req.Function || got.KeyType != req.KeyType {
		t.Errorf("strings mangled: %+v", got)
	}
	if len(got.Key) != 2 || got.Key[1] != -2.5 {
		t.Errorf("key = %v", got.Key)
	}
	if len(got.Keys) != 2 || got.Keys["b"][0] != 3 {
		t.Errorf("keys = %v", got.Keys)
	}
	if len(got.KeyTypes) != 1 || got.KeyTypes[0].Dim != 4 {
		t.Errorf("key types = %v", got.KeyTypes)
	}
	if !bytes.Equal(got.Value, req.Value) || got.Cost != req.Cost || got.TTL != req.TTL {
		t.Errorf("payload fields mangled: %+v", got)
	}
}

func TestRoundTripReplyEncoding(t *testing.T) {
	r := &Reply{
		Type: MsgReplyLookup, Hit: true, Dropout: false,
		Value: []byte("v"), Distance: 1.25, Threshold: 2.5,
		MissedAt: 987654321, ID: 7,
		Stats: StatsPayload{Hits: 1, Misses: 2, Entries: 3, SavedComputeN: 4},
	}
	got, err := DecodeReply(EncodeReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hit || got.Distance != 1.25 || got.Threshold != 2.5 || got.ID != 7 {
		t.Errorf("reply mangled: %+v", got)
	}
	if got.Stats.SavedComputeN != 4 {
		t.Errorf("stats mangled: %+v", got.Stats)
	}
}

// Property: request encoding round-trips arbitrary field contents.
func TestRequestEncodingProperty(t *testing.T) {
	f := func(app, fn string, key []float64, value []byte, cost int64) bool {
		req := &Request{
			Type: MsgLookup, App: app, Function: fn,
			Key: vec.Vector(key), Value: value, Cost: cost,
		}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		if got.App != app || got.Function != fn || got.Cost != cost {
			return false
		}
		if len(got.Key) != len(key) || !bytes.Equal(got.Value, value) {
			return false
		}
		for i := range key {
			if got.Key[i] != key[i] && !(got.Key[i] != got.Key[i] && key[i] != key[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncatedRequest(t *testing.T) {
	full := EncodeRequest(&Request{Type: MsgLookup, Function: "f", Key: vec.Vector{1, 2, 3}, Trace: 7})
	// The final 8 bytes are the OPTIONAL trailing trace ID: cutting into
	// them must still decode (that is the mixed-version contract — an old
	// encoder's frame is exactly full[:len-8]), just without a trace.
	mandatory := len(full) - 8
	for cut := 0; cut < mandatory; cut++ {
		if _, err := DecodeRequest(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for cut := mandatory; cut < len(full); cut++ {
		req, err := DecodeRequest(full[:cut])
		if err != nil {
			t.Fatalf("old-format frame (cut %d) rejected: %v", cut, err)
		}
		if req.Trace != 0 {
			t.Fatalf("partial trace field (cut %d) decoded as %d", cut, req.Trace)
		}
	}
	if req, err := DecodeRequest(full); err != nil || req.Trace != 7 {
		t.Fatalf("full frame: trace %d, err %v", req.Trace, err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxMessageSize+1)); err == nil {
		t.Error("oversized frame written")
	}
	// A hostile header must be rejected before allocation.
	var hdr = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("hostile length prefix accepted")
	}
}

func TestServiceEndToEnd(t *testing.T) {
	_, sock := startServer(t, testConfig())
	cl, err := Dial("unix", sock, "lens")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Register("recognize", KeyTypeDef{Name: "down", Index: "kdtree"}); err != nil {
		t.Fatal(err)
	}
	key := vec.Vector{1, 2, 3}
	res, err := cl.Lookup("recognize", "down", key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("hit on empty cache")
	}
	if _, err := cl.Put("recognize", map[string]vec.Vector{"down": key}, []byte("cat"), PutOptions{Cost: time.Second}); err != nil {
		t.Fatal(err)
	}
	res, err = cl.Lookup("recognize", "down", key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || string(res.Value) != "cat" {
		t.Fatalf("lookup = %+v", res)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCrossAppSharingOverIPC is the paper's headline path end-to-end:
// two separate clients (apps) share one cached result through the
// service.
func TestCrossAppSharingOverIPC(t *testing.T) {
	srv, sock := startServer(t, testConfig())
	lens, err := Dial("unix", sock, "google-lens")
	if err != nil {
		t.Fatal(err)
	}
	defer lens.Close()
	nav, err := Dial("unix", sock, "indoor-nav")
	if err != nil {
		t.Fatal(err)
	}
	defer nav.Close()

	if err := lens.Register("objectRecognition", KeyTypeDef{Name: "down"}); err != nil {
		t.Fatal(err)
	}
	if err := nav.Register("objectRecognition", KeyTypeDef{Name: "down"}); err != nil {
		t.Fatal(err)
	}
	key := vec.Vector{0.5, 0.5}
	if _, err := lens.Put("objectRecognition", map[string]vec.Vector{"down": key}, []byte("stop sign"), PutOptions{Cost: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Widen the threshold so a nearby key from the other app hits.
	if err := srv.Cache().ForceThreshold("objectRecognition", "down", 0.2); err != nil {
		t.Fatal(err)
	}
	res, err := nav.Lookup("objectRecognition", "down", vec.Vector{0.55, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || string(res.Value) != "stop sign" {
		t.Fatalf("cross-app lookup = %+v", res)
	}
}

func TestServiceErrorsSurface(t *testing.T) {
	_, sock := startServer(t, testConfig())
	cl, err := Dial("unix", sock, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Lookup("unregistered", "kt", vec.Vector{1}); err == nil ||
		!strings.Contains(err.Error(), "unknown function") {
		t.Errorf("lookup error = %v", err)
	}
	if err := cl.Register("f"); err == nil {
		t.Error("register with no key types accepted")
	}
	if err := cl.Register("f", KeyTypeDef{Name: "k", Metric: "bogus"}); err == nil {
		t.Error("bogus metric accepted")
	}
	if err := cl.Register("f", KeyTypeDef{Name: "k", Index: "bogus"}); err == nil {
		t.Error("bogus index accepted")
	}
}

func TestServiceMissedAtCostAccounting(t *testing.T) {
	srv, sock := startServer(t, testConfig())
	cl, err := Dial("unix", sock, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("f", KeyTypeDef{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Lookup("f", "k", vec.Vector{1})
	if err != nil || res.Hit {
		t.Fatalf("lookup: %+v err=%v", res, err)
	}
	cost := 30 * time.Millisecond
	time.Sleep(cost) // the "computation"
	if _, err := cl.Put("f", map[string]vec.Vector{"k": {1}}, []byte("v"),
		PutOptions{Cost: time.Since(res.MissedAt)}); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stats()
	if st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The recorded cost shows up in SavedCompute after a hit.
	if _, err := cl.Lookup("f", "k", vec.Vector{1}); err != nil {
		t.Fatal(err)
	}
	cst := srv.Cache().Stats()
	if cst.SavedCompute < cost {
		t.Errorf("SavedCompute = %v, want ≥ %v", cst.SavedCompute, cost)
	}
}

func TestServiceConcurrentClients(t *testing.T) {
	_, sock := startServer(t, testConfig())
	boot, err := Dial("unix", sock, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Register("f", KeyTypeDef{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	const clients = 6
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			cl, err := Dial("unix", sock, "app")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				key := vec.Vector{float64((g*50 + i) % 20)}
				res, err := cl.Lookup("f", "k", key)
				if err != nil {
					errs <- err
					return
				}
				if !res.Hit {
					if _, err := cl.Put("f", map[string]vec.Vector{"k": key}, []byte{byte(g)}, PutOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMalformedFrameDropsClientOnly(t *testing.T) {
	_, sock := startServer(t, testConfig())
	// A raw connection sends garbage; the server must drop it without
	// affecting other clients.
	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	raw.Close()

	cl, err := Dial("unix", sock, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("f", KeyTypeDef{Name: "k"}); err != nil {
		t.Fatalf("healthy client affected: %v", err)
	}
}
