package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// The layer suite: one fixed-scale measurement per layer, on data made
// from the seed, timed around the layer's public functions. It runs in
// every traced run, whatever the workload, so that each layer's numbers
// are on record before an issue asks for a workload that depends on them.

var (
	indexKinds   = []string{"kdtree", "hnsw", "ivf", "lsh", "linear"}
	featureNames = []string{"downsamp", "fast", "hog", "sift"}
)

func layerSuite(cfg config, w workload, m *values, first *op) error {
	suiteCodec(m, w.target(), first)
	if err := suiteFrameEcho(m); err != nil {
		return fmt.Errorf("frame echo: %w", err)
	}
	cache, err := suiteCore(m, cfg.seed)
	if err != nil {
		return fmt.Errorf("core suite: %w", err)
	}
	if err := suiteStore(cfg, m, cache); err != nil {
		return fmt.Errorf("store suite: %w", err)
	}
	if err := suiteIndexKinds(m, cfg.seed, cfg.small); err != nil {
		return fmt.Errorf("index suite: %w", err)
	}
	return suiteFeatureNN(m, cfg.seed, w)
}

// suiteCodec times the wire codec on the workload's own first lookup and
// a hit reply to it.
func suiteCodec(m *values, t target, first *op) {
	req := &Request{Type: msgLookup, App: "bench", Function: t.function, KeyType: t.keyType.Name, Key: first.keys[0], Trace: 1}
	rep := &Reply{Type: msgReplyLookup, Hit: true, Value: labelValue(1, 4), Distance: 0.5, Threshold: 1, Trace: 1}
	reqBuf, repBuf := encodeRequest(req), encodeReply(rep)
	m.set("service.encode_request_ns", medianPer(50, 200, func() { encodeRequest(req) }))
	m.set("service.decode_request_ns", medianPer(50, 200, func() { decodeRequest(reqBuf) }))
	m.set("service.encode_reply_ns", medianPer(50, 200, func() { encodeReply(rep) }))
	m.set("service.decode_reply_ns", medianPer(50, 200, func() { decodeReply(repBuf) }))
	m.set("service.codec_allocs_per_op", allocsPer(2000, func() {
		decodeRequest(encodeRequest(req))
		decodeReply(encodeReply(rep))
	}))
	// Each frame carries a four-byte length prefix.
	m.set("service.wire_bytes_per_op", float64(len(reqBuf)+len(repBuf)+8))
}

// suiteFrameEcho bounces a small frame over a socketpair with WriteFrame
// and ReadFrame: what the kernel and the Go runtime charge for a round
// trip before any Potluck code runs.
func suiteFrameEcho(m *values) error {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return err
	}
	var conns [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		conns[i], err = net.FileConn(f)
		f.Close()
		if err != nil {
			return err
		}
		defer conns[i].Close()
	}
	echoed := make(chan error, 1)
	go func() {
		for {
			b, err := readFrame(conns[1])
			if err == nil {
				err = writeFrame(conns[1], b)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
	}()
	payload := make([]byte, 200)
	samples := make([]int64, 4000)
	for i := range samples {
		start := time.Now()
		if err := writeFrame(conns[0], payload); err != nil {
			return err
		}
		if _, err := readFrame(conns[0]); err != nil {
			return err
		}
		samples[i] = int64(time.Since(start))
	}
	conns[0].Close()
	<-echoed // the echo goroutine ends on the closed peer
	m.set("service.frame_echo_us", us(summarize(samples).p50))
	return nil
}

// suiteBatch16 sends the workload's first keys in MultiLookup frames of
// 16 to the in-process server: the batch wire path, per sub-lookup.
func suiteBatch16(m *values, c *Client, t target, ops []*op) {
	var keys []Vector
	for _, o := range ops {
		keys = append(keys, o.keys...)
		if len(keys) >= 16*256 {
			break
		}
	}
	var batches [][]LookupSub
	for i := 0; i+16 <= len(keys); i += 16 {
		subs := make([]LookupSub, 16)
		for j := range subs {
			subs[j] = LookupSub{Function: t.function, KeyType: t.keyType.Name, Key: keys[i+j]}
		}
		batches = append(batches, subs)
	}
	samples := make([]int64, len(batches))
	before := mallocs()
	for i, subs := range batches {
		start := time.Now()
		c.MultiLookup(subs) // outcomes were judged in pass 1; this times the frame
		samples[i] = int64(time.Since(start))
	}
	ops16 := float64(16 * len(batches))
	m.set("service.batch16_allocs_per_op", float64(mallocs()-before)/ops16)
	m.set("service.batch16_us_per_op", us(summarize(samples).p50)/16)
}

const (
	coreSuiteEntries = 4096
	coreSuiteDim     = 16
)

// suiteCore times core.Cache on a fixed corpus: 4096 entries of 16
// dimensions in well-separated clusters, k-d tree, importance policy,
// dropout off so that every lookup reaches the index. It returns the
// filled cache for the store suite's snapshot.
func suiteCore(m *values, seed int64) (*Cache, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x636f7265))
	t := target{"coreSuite", KeyTypeDef{Name: "vec", Index: "kdtree", Dim: coreSuiteDim}}
	c := newCache(CacheConfig{MaxEntries: coreSuiteEntries, Policy: policyImportance, DisableDropout: true})
	if err := registerCore(c, t); err != nil {
		return nil, err
	}
	point := func(scale float64) Vector {
		v := make(Vector, coreSuiteDim)
		for d := range v {
			v[d] = rng.NormFloat64() * scale
		}
		return v
	}
	put := func(k Vector, label int) (int64, error) {
		req := PutRequest{Keys: map[string]Vector{"vec": k}, Value: labelValue(uint32(label), 1024),
			Cost: time.Duration(5+label%195) * time.Millisecond, App: "bench"}
		start := time.Now()
		_, err := c.Put(t.function, req)
		return int64(time.Since(start)), err
	}
	keys := make([]Vector, coreSuiteEntries)
	fill := make([]int64, 0, coreSuiteEntries)
	for i := range keys {
		keys[i] = point(100)
		ns, err := put(keys[i], i)
		if err != nil {
			return nil, err
		}
		// The first puts land in an almost empty index; the later ones
		// are what a put under capacity costs at this size.
		if i >= coreSuiteEntries/2 {
			fill = append(fill, ns)
		}
	}
	m.set("core.put_ns", summarize(fill).p50)

	i := 0
	hit := func() { c.Lookup(t.function, "vec", keys[i%len(keys)]); i++ }
	m.set("core.lookup_hit_ns", medianPer(40, 100, hit))
	m.set("core.lookup_allocs_per_op", allocsPer(2000, hit))
	far := make([]Vector, 256)
	for j := range far {
		far[j] = point(100)
		far[j][0] += 1e4
	}
	m.set("core.lookup_miss_ns", medianPer(40, 100, func() { c.Lookup(t.function, "vec", far[i%len(far)]); i++ }))

	evict := make([]int64, 512)
	before := mallocs()
	for j := range evict {
		ns, err := put(point(100), coreSuiteEntries+j)
		if err != nil {
			return nil, err
		}
		evict[j] = ns
	}
	m.set("core.put_allocs_per_op", float64(mallocs()-before)/float64(len(evict)))
	m.set("core.put_evict_ns", summarize(evict).p50)
	return c, nil
}

// suiteStore times the durable log directly: appends of 1 KiB entries
// under -fsync interval, explicit syncs, a snapshot of the core suite's
// cache, and a recovery of what was written.
func suiteStore(cfg config, m *values, cache *Cache) error {
	dir, err := runDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*StoreLog, error) {
		return openStore(StoreConfig{Dir: filepath.Join(dir, "data"), Fsync: fsyncInterval, FsyncInterval: weFsyncInterval})
	}
	log, err := open()
	if err != nil {
		return err
	}
	const entries = 4096
	key := make(Vector, coreSuiteDim)
	expires := time.Now().Add(time.Hour).UnixNano()
	var userBytes int64
	appends := make([]int64, entries)
	var syncs []int64
	for i := range appends {
		key[0] = float64(i)
		rec := StoreEntry{ID: uint64(i + 1), Function: "storeSuite", App: "bench", CostNanos: 1e7, Size: 1024,
			InsertedAtNanos: expires - int64(time.Hour), ExpiresAtNanos: expires,
			Keys: []StoreKey{{KeyType: "vec", Key: key}}, Value: labelValue(uint32(i), 1024)}
		userBytes += 1024 + 8*coreSuiteDim
		start := time.Now()
		log.LogPut(rec)
		appends[i] = int64(time.Since(start))
		if i%128 == 127 {
			start = time.Now()
			if err := log.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, int64(time.Since(start)))
		}
	}
	m.set("store.append_ns", summarize(appends).p50)
	m.set("store.sync_us", us(summarize(syncs).p50))
	st := log.Stats()
	m.set("store.disk_bytes_per_user_byte", float64(st.BytesWritten)/float64(userBytes))
	m.set("store.fsyncs", float64(st.Fsyncs))

	start := time.Now()
	if _, err := log.Snapshot(cache); err != nil {
		return err
	}
	m.set("store.snapshot_ms", ms(float64(time.Since(start))))
	m.set("store.segments", float64(log.Stats().Segments))
	if err := log.Close(); err != nil {
		return err
	}

	if log, err = open(); err != nil {
		return err
	}
	defer log.Close()
	state, rs, err := log.Recover()
	if err != nil {
		return err
	}
	m.set("store.recover_ms", ms(float64(rs.Duration)))
	m.set("store.recovered_entries", float64(len(state.Entries)))
	return nil
}

// suiteIndexKinds measures every index kind bare on the index-scale
// corpus: build, probe, recall against the linear scan, removal and key
// memory. Only hnsw is on an end-to-end path today.
func suiteIndexKinds(m *values, seed int64, small bool) error {
	n, nq := isEntries, 256
	if small {
		n, nq = 1500, 64
	}
	rng := rand.New(rand.NewSource(seed))
	corpus, _ := clusteredCorpus(rng, n)
	queries := make([]Vector, nq)
	truth := make([]float64, nq)
	for i := range queries {
		q := make(Vector, isDim)
		j := rng.Intn(n)
		for d := range q {
			q[d] = corpus[j][d] + rng.NormFloat64()*0.5
		}
		queries[i], truth[i] = q, math.Inf(1)
		for _, k := range corpus {
			truth[i] = math.Min(truth[i], distance(q, k))
		}
	}
	for _, kind := range indexKinds {
		idx, err := newIndex(kind, isDim, IndexOptions{})
		if err != nil {
			return err
		}
		start := time.Now()
		for i, k := range corpus {
			if err := idx.Insert(IndexID(i+1), k); err != nil {
				return err
			}
		}
		m.set("index.insert_ns."+kind, float64(time.Since(start))/float64(n))

		before := idx.ProbeStats()
		found := 0
		samples := make([]int64, nq)
		for i, q := range queries {
			start := time.Now()
			nb, ok := idx.Nearest(q)
			samples[i] = int64(time.Since(start))
			if ok && nb.Dist <= truth[i]+1e-9 {
				found++
			}
		}
		after := idx.ProbeStats()
		m.set("index.nearest_ns."+kind, summarize(samples).p50)
		m.set("index.probes_per_query."+kind, float64(after.Probes-before.Probes)/float64(after.Queries-before.Queries))
		m.set("index.recall."+kind, float64(found)/float64(nq))
		i := 0
		m.set("index.allocs_per_query."+kind, allocsPer(nq, func() { idx.Nearest(queries[i%nq]); i++ }))
		m.set("index.key_bytes_per_entry."+kind, float64(indexKeyBytes(idx, isDim))/float64(idx.Len()))

		removals := min(512, n/2)
		start = time.Now()
		for i := 0; i < removals; i++ {
			idx.Remove(IndexID(i + 1))
		}
		m.set("index.remove_ns."+kind, float64(time.Since(start))/float64(removals))
	}
	return nil
}

// suiteFeatureNN times the key extractors and the classifier on frames of
// a feed made from the seed. app-vision brings its own classifier; the
// other workloads fit a small one.
func suiteFeatureNN(m *values, seed int64, w workload) error {
	const frames = 48
	feed := newVideo(VideoConfig{Seed: seed ^ 0x66656174, W: frameW, H: frameH, CutEvery: 12, PanPerFrame: panPerFrame})
	imgs := make([]*Image, frames)
	for i := range imgs {
		imgs[i] = feed.Frame(i)
	}
	for _, name := range featureNames {
		ext, err := featureByName(name)
		if err != nil {
			return err
		}
		samples := make([]int64, frames)
		for i, img := range imgs {
			start := time.Now()
			ext.Extract(img)
			samples[i] = int64(time.Since(start))
		}
		m.set("feature.extract_us."+name, us(summarize(samples).p50))
		i := 0
		m.set("feature.extract_allocs."+name, allocsPer(frames, func() { ext.Extract(imgs[i%frames]); i++ }))
	}
	var clf *Classifier
	if v, ok := w.(*appVision); ok {
		clf = v.clf
	} else {
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i / 4
		}
		var err error
		if clf, err = trainNN(newTinyNet(avNetworkSeed), imgs[:16], labels, 4); err != nil {
			return err
		}
	}
	samples := make([]int64, 24)
	for i := range samples {
		start := time.Now()
		clf.Classify(imgs[i])
		samples[i] = int64(time.Since(start))
	}
	m.set("nn.classify_ms", ms(summarize(samples).p50))
	m.set("nn.classify_allocs", allocsPer(8, func() { clf.Classify(imgs[0]) }))
	return nil
}
