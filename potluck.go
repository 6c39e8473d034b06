// Package potluck is a cross-application approximate deduplication cache
// for computation-intensive workloads, reproducing "Potluck:
// Cross-Application Approximate Deduplication for Computation-Intensive
// Mobile Applications" (Guo & Hu, ASPLOS 2018).
//
// Potluck stores (function, key-type, key) → result tuples where keys
// are feature vectors derived from raw input. Lookups are approximate:
// a threshold-restricted nearest-neighbour query whose threshold adapts
// online (the paper's Algorithm 1), with a random-dropout mechanism for
// quality control. Entries are ranked for eviction by an importance
// metric (computation cost × access frequency / size) and expire after a
// validity period.
//
// # In-process use
//
//	cache := potluck.New(potluck.Config{})
//	cache.RegisterFunction("objectRecognition",
//		potluck.KeyTypeSpec{Name: "downsamp", Index: potluck.IndexKDTree})
//
//	res, _ := cache.Lookup("objectRecognition", "downsamp", key)
//	if !res.Hit {
//		label := expensiveRecognition(frame)
//		cache.Put("objectRecognition", potluck.PutRequest{
//			Keys:     map[string]potluck.Vector{"downsamp": key},
//			Value:    label,
//			MissedAt: res.MissedAt,
//		})
//	}
//
// # As a background service
//
// Run cmd/potluckd and connect applications with Dial; see
// examples/multiapp for three applications sharing one service.
package potluck

import (
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/vec"
)

// Core cache types, re-exported from the implementation.
type (
	// Cache is the deduplication cache (see core.Cache).
	Cache = core.Cache
	// Config configures a Cache; the zero value gives the paper's
	// defaults (1-hour TTL, 0.1 dropout, importance eviction, Algorithm
	// 1 with k=4, γ=0.8, z=100).
	Config = core.Config
	// KeyTypeSpec declares one key type of a function.
	KeyTypeSpec = core.KeyTypeSpec
	// PutRequest describes an entry to insert.
	PutRequest = core.PutRequest
	// LookupResult reports a lookup outcome.
	LookupResult = core.LookupResult
	// Stats counts cache activity.
	Stats = core.Stats
	// TunerConfig parameterizes the threshold-tuning algorithm.
	TunerConfig = core.TunerConfig
	// TunerStats snapshots a tuner's state.
	TunerStats = core.TunerStats
	// ReputationConfig enables the cache-pollution defence.
	ReputationConfig = core.ReputationConfig
	// PolicyKind names an eviction policy.
	PolicyKind = core.PolicyKind
	// Extractor derives a key from a raw input.
	Extractor = core.Extractor
	// ID identifies a cache entry.
	ID = core.ID
)

// Key-space types.
type (
	// Vector is a feature-vector key.
	Vector = vec.Vector
	// Metric is a distance over keys.
	Metric = vec.Metric
)

// Eviction policies (§5.3 of the paper compares the first three).
const (
	PolicyImportance = core.PolicyImportance
	PolicyLRU        = core.PolicyLRU
	PolicyRandom     = core.PolicyRandom
	PolicyFIFO       = core.PolicyFIFO
)

// Index kinds for KeyTypeSpec.Index (Figure 5 of the paper, plus the
// sub-linear ANN kinds for million-entry key sets).
const (
	IndexLinear  = index.KindLinear
	IndexKDTree  = index.KindKDTree
	IndexLSH     = index.KindLSH
	IndexTreeMap = index.KindTreeMap
	IndexHash    = index.KindHash
	IndexHNSW    = index.KindHNSW
	IndexIVF     = index.KindIVF
	IndexHNSWPQ  = index.KindHNSWPQ
)

// Built-in metrics.
var (
	// Euclidean is the default L2 metric.
	Euclidean Metric = vec.EuclideanMetric{}
	// Manhattan is the L1 metric.
	Manhattan Metric = vec.ManhattanMetric{}
	// Cosine is 1−cos similarity.
	Cosine Metric = vec.CosineMetric{}
)

// New constructs a cache. See Config for the defaults.
func New(cfg Config) *Cache { return core.New(cfg) }

// Service types: the Binder-style background service (§4 of the paper).
type (
	// Server exposes a cache over a socket.
	Server = service.Server
	// Client is an application's connection to a server.
	Client = service.Client
	// KeyTypeDef declares a key type over the wire.
	KeyTypeDef = service.KeyTypeDef
	// PutOptions carries optional Put fields over the wire.
	PutOptions = service.PutOptions
	// Tiered chains a local cache with a remote peer service — the
	// cross-device deduplication of the paper's §7 future work.
	Tiered = service.Tiered
	// RestoreStats reports what LoadFile re-admitted, dropped as expired,
	// or skipped.
	RestoreStats = core.RestoreStats
	// Refiner adjusts a cached result to the exact current input
	// (post-lookup incremental computation, §7).
	Refiner = core.Refiner
	// LookupSub is one sub-lookup of a batched Client.MultiLookup.
	LookupSub = service.LookupSub
	// PutSub is one sub-put of a batched Client.MultiPut.
	PutSub = service.PutSub
	// MultiLookupResult is the per-sub outcome of Client.MultiLookup.
	MultiLookupResult = service.MultiLookupResult
	// MultiPutResult is the per-sub outcome of Client.MultiPut.
	MultiPutResult = service.MultiPutResult
	// BatchLookup is one sub-lookup of an in-process Cache.MultiLookup.
	BatchLookup = core.BatchLookup
	// BatchPut is one sub-put of an in-process Cache.MultiPut.
	BatchPut = core.BatchPut
)

// MaxBatch is the wire limit on sub-operations per batch frame.
const MaxBatch = service.MaxBatch

// NewServer wraps a cache in a service.
func NewServer(cache *Cache) *Server { return service.NewServer(cache) }

// Dial connects to a Potluck service ("unix" + socket path or "tcp" +
// host:port). app names the calling application.
func Dial(network, addr, app string) (*Client, error) {
	return service.Dial(network, addr, app)
}

// SaveFile writes the cache's durable state — functions, tuner state,
// counters, and every live entry with a persistable value — to one
// crash-safe snapshot file (see store.SaveFile). A daemon uses potluckd
// -data-dir instead, which adds a write-ahead log between snapshots.
func SaveFile(c *Cache, path string) error { return store.SaveFile(c, path) }

// LoadFile restores a SaveFile snapshot into the cache. Entries keep
// their IDs and absolute expiry deadlines: whatever expired while the
// file sat on disk is dropped, and loading the same file twice admits
// nothing twice (see store.LoadFile).
func LoadFile(c *Cache, path string) (RestoreStats, error) { return store.LoadFile(c, path) }

// StringKey embeds a string into the key space (§4.2's String key
// support); pair it with IndexTreeMap for lexical ordering. The key is
// as long as the string, and every key of a key type has one length
// (KeyTypeSpec.Dim), so a key type takes strings of one length: pad
// shorter ones to it.
func StringKey(s string) Vector { return vec.FromString(s) }

// KeyString recovers a string from a StringKey embedding.
func KeyString(v Vector) string { return vec.ToString(v) }

// FeatureExtractor returns a built-in key-generation mechanism from the
// library of §3.2 ("colorhist", "hog", "downsamp", "fast", "harris",
// "surf", "sift").
func FeatureExtractor(name string) (feature.Extractor, error) {
	return feature.ByName(name)
}

// FeatureNames lists the built-in extractors.
func FeatureNames() []string { return feature.Names() }
