package main

// layers.go is the only file of the benchmark that imports
// repro/internal/*. It pins the public surface the benchmark times: every
// function below is assigned to a variable of an explicit function type,
// so a later signature change breaks this one file with a compile error
// that names the function. The rest of the benchmark uses the aliases.
// The same list is in README.md ("Pinned surface").

import (
	"context"
	"io"
	"net"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/imaging"
	"repro/internal/index"
	"repro/internal/nn"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/vec"
)

type (
	Vector = vec.Vector
	Image  = imaging.RGB

	Client       = service.Client
	Server       = service.Server
	KeyTypeDef   = service.KeyTypeDef
	PutOptions   = service.PutOptions
	LookupSub    = service.LookupSub
	PutSub       = service.PutSub
	StatsPayload = service.StatsPayload
	Request      = service.Request
	Reply        = service.Reply

	Cache       = core.Cache
	CacheConfig = core.Config
	TunerConfig = core.TunerConfig
	PutRequest  = core.PutRequest
	BatchLookup = core.BatchLookup
	BatchPut    = core.BatchPut
	StoreEntry  = core.StoreEntry
	StoreKey    = core.StoreKey

	Index        = index.Index
	IndexID      = index.ID
	IndexOptions = index.Options
	HNSWConfig   = index.HNSWConfig

	StoreLog    = store.Log
	StoreConfig = store.Config

	Extractor   = feature.Extractor
	Classifier  = nn.Classifier
	VideoConfig = synth.VideoConfig
)

const (
	msgLookup      = service.MsgLookup
	msgReplyLookup = service.MsgReplyLookup
)

// service: client side, codec and framing.
var (
	dial          func(network, addr, app string) (*service.Client, error)   = service.Dial
	encodeRequest func(*service.Request) []byte                              = service.EncodeRequest
	decodeRequest func([]byte) (*service.Request, error)                     = service.DecodeRequest
	encodeReply   func(*service.Reply) []byte                                = service.EncodeReply
	decodeReply   func([]byte) (*service.Reply, error)                       = service.DecodeReply
	writeFrame    func(io.Writer, []byte) error                              = service.WriteFrame
	readFrame     func(io.Reader) ([]byte, error)                            = service.ReadFrame
	newServer     func(*core.Cache) *service.Server                          = service.NewServer
	serve         func(*service.Server, context.Context, net.Listener) error = (*service.Server).Serve
	closeServer   func(*service.Server) error                                = (*service.Server).Close

	_ func(*service.Client, string, ...service.KeyTypeDef) error                                       = (*service.Client).Register
	_ func(*service.Client, string, string, vec.Vector) (service.LookupResult, error)                  = (*service.Client).Lookup
	_ func(*service.Client, string, map[string]vec.Vector, []byte, service.PutOptions) (uint64, error) = (*service.Client).Put
	_ func(*service.Client, []service.LookupSub) ([]service.MultiLookupResult, error)                  = (*service.Client).MultiLookup
	_ func(*service.Client, []service.PutSub) ([]service.MultiPutResult, error)                        = (*service.Client).MultiPut
	_ func(*service.Client) (service.StatsPayload, error)                                              = (*service.Client).Stats
	_ func(*service.Client) error                                                                      = (*service.Client).Close
)

// core.
var (
	newCache func(core.Config) *core.Cache = core.New

	_ func(*core.Cache, string, ...core.KeyTypeSpec) error                     = (*core.Cache).RegisterFunction
	_ func(*core.Cache, string, string, vec.Vector) (core.LookupResult, error) = (*core.Cache).Lookup
	_ func(*core.Cache, string, core.PutRequest) (core.ID, error)              = (*core.Cache).Put
	_ func(*core.Cache, []core.BatchLookup) []core.BatchLookupResult           = (*core.Cache).MultiLookup
	_ func(*core.Cache, []core.BatchPut) []core.BatchPutResult                 = (*core.Cache).MultiPut
)

// index. newIndex fixes the metric (Euclidean), as the daemon's register
// handler does; opts is the tuning the daemon's flags set.
var _ func(index.Kind, vec.Metric, int, index.Options) (index.Index, error) = index.NewWithOptions

func newIndex(kind string, dim int, opts IndexOptions) (Index, error) {
	return index.NewWithOptions(index.Kind(kind), vec.EuclideanMetric{}, dim, opts)
}

// indexKeyBytes reports an index's key storage in bytes: the kind's own
// figure when it keeps one, else the dense float64 vectors it stores.
func indexKeyBytes(idx Index, dim int) int64 {
	if mr, ok := idx.(index.MemoryReporter); ok {
		return mr.KeyBytes()
	}
	return int64(idx.Len()) * int64(dim) * 8
}

func distance(a, b Vector) float64 { return vec.EuclideanMetric{}.Distance(a, b) }

// store. A *store.Log is a core.Store, so it plugs into CacheConfig.Store.
var (
	openStore func(store.Config) (*store.Log, error) = store.Open

	_ core.Store                                                        = (*store.Log)(nil)
	_ func(*store.Log, core.StoreEntry)                                 = (*store.Log).LogPut
	_ func(*store.Log) error                                            = (*store.Log).Sync
	_ func(*store.Log) (*core.DurableState, store.RecoveryStats, error) = (*store.Log).Recover
	_ func(*store.Log, *core.Cache) (*core.DurableState, error)         = (*store.Log).Snapshot
	_ func(*store.Log) store.Stats                                      = (*store.Log).Stats
	_ func(*core.Cache, *core.DurableState) (core.RestoreStats, error)  = (*core.Cache).Restore
)

const (
	policyImportance = core.PolicyImportance
	policyLRU        = core.PolicyLRU
	fsyncInterval    = store.FsyncInterval
)

// feature, nn, synth.
var (
	featureByName func(string) (feature.Extractor, error)                               = feature.ByName
	newVideo      func(synth.VideoConfig) *synth.Video                                  = synth.NewVideo
	trainNN       func(*nn.Network, []*imaging.RGB, []int, int) (*nn.Classifier, error) = nn.Train
	newTinyNet    func(int64) *nn.Network                                               = nn.NewTinyAlexNet

	_ func(*nn.Classifier, *imaging.RGB) (int, []float64) = (*nn.Classifier).Classify
	_ func(*synth.Video, int) *imaging.RGB                = (*synth.Video).Frame
)

// registerCore registers t on a cache the way the daemon's register
// handler does for a wire request: Euclidean metric, the named index kind.
func registerCore(c *Cache, t target) error {
	return c.RegisterFunction(t.function, core.KeyTypeSpec{
		Name: t.keyType.Name, Index: index.Kind(t.keyType.Index), Dim: int(t.keyType.Dim)})
}
