package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Concurrency model (see also DESIGN.md §"Concurrency model").
//
// The cache is a shared service hit by many applications at once
// (§4.2), so the read path must not serialize on writer state. State is
// split into independently locked pieces with a strict acquisition
// order:
//
//	1. Cache.funcsMu   (RWMutex) — the function table (the funcs map).
//	                   functionCache values are immutable copy-on-write
//	                   snapshots. Write-locked only by RegisterFunction.
//	2. Cache.admitMu   (Mutex) — the admission/eviction lock: every
//	                   mutation of the entry table, the victim and
//	                   expiry heaps and the entries' heap slots.
//	                   Writers only; lookups never touch it.
//	3. keyIndex.mu     (RWMutex, one per key type) — that key type's
//	                   index structure (door.go).
//	                   Lookups on different functions (or different
//	                   key types) touch different locks and proceed in
//	                   parallel.
//	Leaf locks (never held while acquiring any of the above):
//	   Tuner.mu, Reputation.mu, Cache.rngMu (dropout draws).
//
// A later lock may be acquired while holding an earlier one, never the
// reverse. The entry table itself is a sync.Map with lock-free reads,
// and bytes/entry-count accounting, Stats counters, per-entry hit
// counters, and the next-expiry deadline are all atomics — so a lookup
// takes only funcsMu.RLock (to resolve the key index) and that key
// index's RLock. Crucially there is no cache-wide RWMutex on the hot
// path: a pending writer on such a lock blocks every arriving reader,
// which measurably re-serializes the whole cache at 10% put traffic.
//
// A lookup resolves its index hit to an entry via the entry table
// after releasing the index lock. Between the two steps the entry may
// be evicted (the lookup then reports a miss) or a racing put may not
// have published the entry yet (also a miss) — both are benign.
// Entries are published to and removed from the table only under
// admitMu, together with their heap items, so whenever admitMu is free
// the table, both heaps and the entry count hold the same set.

// Common errors returned by the cache.
var (
	// ErrUnknownFunction is returned when an operation names a function
	// that has not been registered.
	ErrUnknownFunction = errors.New("core: unknown function")
	// ErrUnknownKeyType is returned when an operation names a key type
	// that has not been registered for the function.
	ErrUnknownKeyType = errors.New("core: unknown key type")
	// ErrNoKey is returned by Put when no key could be produced for any
	// of the function's key types.
	ErrNoKey = errors.New("core: no key available for any registered key type")
	// ErrEmptyKey is returned by Put when a supplied or extracted key
	// vector has zero dimensions. Zero-dimension keys cannot be indexed
	// (a KD-tree has no axis to split on) and are rejected up front.
	ErrEmptyKey = errors.New("core: empty key vector")
	// ErrAppBarred is returned by Put when the reputation system has
	// barred the calling application for polluting the cache.
	ErrAppBarred = errors.New("core: application barred by reputation system")
)

// Registration bounds: RegisterFunction, the one door the wire and
// Restore both pass through, refuses a key type or a function that no
// request could ever serve, before it builds any index.
const (
	// MaxKeyDim bounds a declared key length. A key of this many float64
	// values is 8 MiB, so a request carrying one fits in a wire frame
	// (16 MiB) with room to spare.
	MaxKeyDim = 1 << 20
	// MaxKeyTypes caps the key types of one function, across all of its
	// registrations.
	MaxKeyTypes = 64
)

// DefaultTTL is the paper's default entry validity period ("the timeout
// is currently set to be an hour", §3.6).
const DefaultTTL = time.Hour

// DefaultDropoutRate is the paper's random-dropout probability ("currently
// set to 0.1", §3.4).
const DefaultDropoutRate = 0.1

// Extractor converts a raw input (image, pose, audio segment, ...) into a
// feature-vector key. Applications may register custom extractors per key
// type (§4.2 "Support for custom key definition and matching").
type Extractor func(raw any) (vec.Vector, error)

// KeyTypeSpec describes one key type for a function: how keys are
// produced, compared, and indexed (§3.7).
type KeyTypeSpec struct {
	// Name identifies the key type, e.g. "colorhist" or "pose".
	Name string
	// Metric is the distance used by this key type's index. Defaults to
	// Euclidean.
	Metric vec.Metric
	// Index selects the index structure. Defaults to KD-tree.
	Index index.Kind
	// Dim is every key's length (at most MaxKeyDim). Lookups and puts
	// with a key of another length are refused with an error wrapping
	// vec.ErrDimensionMismatch. Zero lets the first key a put admits set
	// the length. It allocates nothing.
	Dim int
	// Extract, when non-nil, derives this key type's key from the raw
	// input carried by a Put, enabling cross-key-type propagation
	// (§3.7 "Cache insertion"). Key types without an extractor only
	// receive entries whose Put supplies the key explicitly.
	Extract Extractor
}

func (s KeyTypeSpec) withDefaults() KeyTypeSpec {
	if s.Metric == nil {
		s.Metric = vec.EuclideanMetric{}
	}
	if s.Index == "" {
		s.Index = index.KindKDTree
	}
	return s
}

// Config configures a Cache. The zero value gives the paper's defaults:
// unlimited capacity, 1-hour TTL, 0.1 dropout, importance eviction,
// Algorithm 1 with k=4, γ=0.8, z=100.
type Config struct {
	// Clock supplies time; defaults to the real clock. Experiments
	// inject a virtual clock.
	Clock clock.Clock
	// MaxEntries bounds the number of cached values (0 = unlimited;
	// negative values are treated as 0).
	MaxEntries int
	// MaxBytes bounds the total entry size in bytes (0 = unlimited;
	// negative values are treated as 0).
	MaxBytes int64
	// DefaultTTL is the validity period applied when a Put does not
	// specify one. Defaults to one hour.
	DefaultTTL time.Duration
	// DropoutRate is the probability that a lookup skips the cache
	// (§3.4). Values above 1 are clamped to 1 (every lookup drops out).
	//
	// Footgun: any value <= 0 — including explicit zero and negative
	// values — means "unset" and is replaced by the default 0.1. To
	// actually turn dropout off, set DisableDropout; a DropoutRate of 0
	// alone silently re-enables the 0.1 default.
	DropoutRate float64
	// DisableDropout turns off the random-dropout mechanism entirely.
	// This is the only way to get a dropout probability of exactly
	// zero; see the DropoutRate footgun above.
	DisableDropout bool
	// Policy selects the replacement strategy; defaults to importance.
	Policy PolicyKind
	// Tuner configures Algorithm 1 (zero fields take paper defaults).
	Tuner TunerConfig
	// Seed makes dropout and random eviction deterministic.
	Seed int64
	// Equal compares cached values for the threshold tuner. Defaults to
	// reflect.DeepEqual.
	Equal func(a, b any) bool
	// LookupK is the k of the threshold-restricted k-nearest-neighbour
	// query (§3.4). The default 1 returns the nearest within-threshold
	// entry — the paper's choice ("this value provides the fastest
	// lookup time without sacrificing quality"). With k > 1, the
	// within-threshold neighbours vote by value equality and the
	// majority's closest representative is returned. Negative values
	// are treated as the default.
	LookupK int
	// Reputation enables the Credence-style reputation defence against
	// cache pollution (§3.5); nil disables it.
	Reputation *ReputationConfig
	// Store, when non-nil, attaches a durability layer: registrations,
	// admissions, and pre-deadline removals are logged to it, and
	// CaptureState/Restore round-trip the full cache state through it
	// (see durable.go and internal/store). Nil — the default — keeps
	// the cache purely in-memory at zero hot-path cost.
	Store Store
	// IndexOptions tunes the parameterized index kinds (LSH, HNSW,
	// HNSW-PQ and IVF) for every key type registered with this
	// cache. Zero-value fields take each kind's defaults; kinds without
	// tuning knobs ignore it.
	IndexOptions index.Options
	// Telemetry, when non-nil, attaches the cache to a telemetry hub:
	// per-(function, key type) metric series are exported to its
	// registry, lookup latencies feed per-series histograms, and
	// decisions (misses, dropouts, errors, sampled hits and puts) are
	// recorded as spans to its span recorder. Nil runs the cache with
	// its internal counters only; see telemetry.go for the overhead
	// budget.
	Telemetry *telemetry.Telemetry
	// Tap, when non-nil, observes the post-dropout decision stream for
	// counterfactual profiling (internal/whatif). Nil — the default —
	// costs the hot paths one nil check; see the Tap interface for the
	// attached-cost contract.
	Tap Tap
}

// normalized returns cfg with defaults applied and out-of-range values
// clamped, so the rest of the cache never sees a nonsensical setting.
func (cfg Config) normalized() Config {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = DefaultTTL
	}
	if cfg.DropoutRate <= 0 && !cfg.DisableDropout {
		cfg.DropoutRate = DefaultDropoutRate
	}
	if cfg.DropoutRate > 1 {
		cfg.DropoutRate = 1
	}
	if cfg.DisableDropout {
		cfg.DropoutRate = 0
	}
	if cfg.MaxEntries < 0 {
		cfg.MaxEntries = 0
	}
	if cfg.MaxBytes < 0 {
		cfg.MaxBytes = 0
	}
	if cfg.LookupK < 0 {
		cfg.LookupK = 0
	}
	if cfg.Equal == nil {
		cfg.Equal = func(a, b any) bool { return reflect.DeepEqual(a, b) }
	}
	return cfg
}

// counters holds the cache-global activity counters as atomics, so
// Stats() and HitRate() never contend with the data path. Lookup
// outcomes (hits/misses/dropouts) and puts are NOT here: they live in
// the per-(function, key type) ktCounters and per-function fnCounters
// series (telemetry.go), and Stats() derives the global totals by
// summing the series — the hot path pays for one set of counters, not
// two.
type counters struct {
	rejectedPuts  atomic.Int64
	evictions     atomic.Int64
	expirations   atomic.Int64
	invalidations atomic.Int64
	savedCompute  atomic.Int64 // nanoseconds
}

// Cache is the Potluck deduplication cache. Entries are organized first
// by function, then by key type, then by key (§4.2, Figure 5). Cache is
// safe for concurrent use; see the concurrency-model comment above for
// the lock hierarchy.
type Cache struct {
	cfg    Config
	clk    clock.Clock
	policy Policy
	equal  func(a, b any) bool
	rep    *Reputation

	// realClk is true when clk is the wall clock, letting hot-path
	// latency measurements use time.Since (one monotonic read) instead
	// of an interface call returning a full wall+monotonic timestamp.
	realClk bool

	// rngMu guards rng (dropout draws). Leaf lock.
	rngMu sync.Mutex
	rng   *rand.Rand

	// funcsMu guards the funcs map. First in the lock order. Each
	// functionCache is immutable once published (registration swaps in
	// a copy), and keyIndex pointers are stable forever, so read paths
	// resolve a snapshot under RLock, release, and iterate freely.
	funcsMu sync.RWMutex
	funcs   map[string]*functionCache

	// entries is the entry table (ID → *entry). Reads are lock-free;
	// writes happen under admitMu.
	entries entryTable
	count   atomic.Int64
	bytes   atomic.Int64

	// admitMu is the admission/eviction lock (second in the lock
	// order): it guards table writes and the two heaps, which hold
	// exactly the live entries — victims keyed by policy score (lazily,
	// see Victim), expiry by deadline. Only mutating operations take
	// it; lookups check nextExpiry instead.
	admitMu sync.Mutex
	victims Heap[*entry]
	expiry  Heap[*entry]
	// nextExpiry is the UnixNano deadline of the expiry head (MaxInt64
	// when empty), letting every operation test "anything expired?"
	// with one atomic load instead of a shared lock.
	nextExpiry atomic.Int64

	nextID atomic.Uint64
	ctr    counters

	// store is the optional durability layer (nil when Config.Store was
	// nil); restoring suppresses re-logging registrations and puts while
	// Restore replays records that are already persisted.
	store     Store
	restoring atomic.Bool

	// tel is the optional telemetry hub (nil when Config.Telemetry was
	// nil); vecs caches the metric families registered with it. spans is
	// tel's span recorder hoisted into its own field so the lookup hot
	// path tests span recording with one nil check.
	tel   *telemetry.Telemetry
	vecs  *telemetryVecs
	spans *telemetry.SpanRecorder

	// tap is the optional decision-stream observer (nil when Config.Tap
	// was nil), hoisted like spans so hot paths test it with one nil
	// check.
	tap Tap
}

// entryTable wraps sync.Map with the entry types spelled out.
type entryTable struct{ m sync.Map }

func (t *entryTable) load(id ID) *entry {
	if v, ok := t.m.Load(id); ok {
		return v.(*entry)
	}
	return nil
}

func (t *entryTable) store(e *entry) { t.m.Store(e.id, e) }

func (t *entryTable) loadAndDelete(id ID) *entry {
	if v, ok := t.m.LoadAndDelete(id); ok {
		return v.(*entry)
	}
	return nil
}

func (t *entryTable) forEach(f func(e *entry) bool) {
	t.m.Range(func(_, v any) bool { return f(v.(*entry)) })
}

// functionCache is an immutable snapshot of one function's key types.
// RegisterFunction publishes a fresh copy under Cache.funcsMu
// (copy-on-write) instead of mutating in place, so any *functionCache
// resolved under the read lock stays consistent after the lock is
// released — hot paths iterate it without copying or re-locking.
type functionCache struct {
	name     string
	keyTypes map[string]*keyIndex // read-only after publication
	order    []string             // registration order, for deterministic iteration
	kis      []*keyIndex          // parallel to order
	// stats is the function's put-counter series, carried by pointer
	// across copy-on-write re-registration so counts are never reset.
	stats *fnCounters
}

type keyIndex struct {
	// fn is the function the key type belongs to; spec.Name is its own
	// name.
	fn   string
	spec KeyTypeSpec
	// width is every key's length: spec.Dim when declared, else the
	// length of the first key a put admits, set once. Zero until then.
	// admit is the only code that reads it.
	width atomic.Int64
	// tuner synchronizes itself (its own mutex is the single point of
	// coordination); it is never called with any cache lock held.
	tuner *Tuner
	// ctr is this series' lookup-outcome counters (always maintained).
	ctr ktCounters
	// lat is the lookup-latency histogram minted from the telemetry
	// registry; nil when the cache runs without telemetry.
	lat *telemetry.Histogram

	// mu guards idx. Third in the lock order. The idx POINTER is set at
	// construction and never reassigned, so lockless reads of its atomic
	// probe counters are safe; the index's contents still require mu.
	// idx is mutated only by insert and remove (door.go).
	mu  sync.RWMutex
	idx index.Index
}

// New constructs a cache from cfg. Invalid policy kinds panic; use
// NewPolicy to validate user input first.
func New(cfg Config) *Cache {
	cfg = cfg.normalized()
	pol, err := NewPolicy(cfg.Policy, cfg.Seed+2)
	if err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:     cfg,
		clk:     cfg.Clock,
		policy:  pol,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		equal:   cfg.Equal,
		funcs:   make(map[string]*functionCache),
		victims: NewHeap(func(e *entry) *int { return &e.victimSlot }),
		expiry:  NewHeap(func(e *entry) *int { return &e.expirySlot }),
		store:   cfg.Store,
		tap:     cfg.Tap,
	}
	_, c.realClk = c.clk.(clock.Real)
	c.nextExpiry.Store(math.MaxInt64)
	if cfg.Reputation != nil {
		c.rep = NewReputation(*cfg.Reputation)
	}
	if cfg.Telemetry != nil {
		c.tel = cfg.Telemetry
		c.spans = cfg.Telemetry.Spans
		c.initTelemetry()
	}
	return c
}

// RegisterFunction registers a function and its key types, creating one
// index per key type (§3.7). Registering an existing function adds any
// new key types and resets the thresholds of all its tuners, matching
// register()'s contract ("It also resets the input similarity
// threshold", §4.3). At least one key type is required.
//
// Registration is atomic: every spec is validated and its index built
// before any shared state changes, so a failed call leaves no partial
// function, no partial key-type set, and untouched tuners.
func (c *Cache) RegisterFunction(fn string, keyTypes ...KeyTypeSpec) error {
	if fn == "" {
		return errors.New("core: empty function name")
	}
	if len(keyTypes) == 0 {
		return errors.New("core: at least one key type is required")
	}
	if len(keyTypes) > MaxKeyTypes {
		return fmt.Errorf("core: %d key types, at most %d", len(keyTypes), MaxKeyTypes)
	}
	specs := make([]KeyTypeSpec, 0, len(keyTypes))
	seen := make(map[string]struct{}, len(keyTypes))
	for _, spec := range keyTypes {
		spec = spec.withDefaults()
		if spec.Name == "" {
			return errors.New("core: key type with empty name")
		}
		if spec.Dim > MaxKeyDim {
			return fmt.Errorf("core: key type %q: Dim %d over %d", spec.Name, spec.Dim, MaxKeyDim)
		}
		if _, dup := seen[spec.Name]; dup {
			continue // first spec wins, like re-registration
		}
		seen[spec.Name] = struct{}{}
		specs = append(specs, spec)
	}
	built := make([]*keyIndex, len(specs))
	for i, spec := range specs {
		idx, err := index.NewWithOptions(spec.Index, spec.Metric, spec.Dim, c.cfg.IndexOptions)
		if err != nil {
			return fmt.Errorf("core: key type %q: %w", spec.Name, err)
		}
		ki := &keyIndex{
			fn:    fn,
			spec:  spec,
			idx:   idx,
			tuner: NewTuner(c.cfg.Tuner),
		}
		if spec.Dim > 0 {
			ki.width.Store(int64(spec.Dim))
		}
		built[i] = ki
	}

	c.funcsMu.Lock()
	old := c.funcs[fn]
	fc := &functionCache{name: fn, keyTypes: make(map[string]*keyIndex), stats: &fnCounters{}}
	if old != nil {
		// Copy-on-write: never mutate a published functionCache. The
		// counter series rides along so re-registration never resets it.
		fc.stats = old.stats
		for name, ki := range old.keyTypes {
			fc.keyTypes[name] = ki
		}
		fc.order = append(fc.order, old.order...)
		fc.kis = append(fc.kis, old.kis...)
	}
	var added []*keyIndex
	for i, spec := range specs {
		if _, exists := fc.keyTypes[spec.Name]; exists {
			continue
		}
		fc.keyTypes[spec.Name] = built[i]
		fc.order = append(fc.order, spec.Name)
		fc.kis = append(fc.kis, built[i])
		added = append(added, built[i])
	}
	if len(fc.kis) > MaxKeyTypes {
		c.funcsMu.Unlock()
		return fmt.Errorf("core: function %q would have %d key types, at most %d", fn, len(fc.kis), MaxKeyTypes)
	}
	c.funcs[fn] = fc
	if c.store != nil && !c.restoring.Load() {
		// Logged under funcsMu so any put that resolves this function
		// appends after this record: replay can never see a put for a
		// function it has not yet registered.
		kts := make([]StoreKeyType, len(specs))
		for i, s := range specs {
			kts[i] = StoreKeyType{Name: s.Name, Metric: s.Metric.Name(), Index: string(s.Index), Dim: s.Dim}
		}
		c.store.LogRegister(fn, kts)
	}
	c.funcsMu.Unlock()

	c.wireFunctionTelemetry(fn, fc.stats, added)
	for _, ki := range fc.kis {
		ki.tuner.Reset()
	}
	return nil
}

// Functions returns the registered function names.
func (c *Cache) Functions() []string {
	c.funcsMu.RLock()
	defer c.funcsMu.RUnlock()
	out := make([]string, 0, len(c.funcs))
	for fn := range c.funcs {
		out = append(out, fn)
	}
	return out
}

// keyIndexFor resolves (fn, keyType) to its index.
func (c *Cache) keyIndexFor(fn, keyType string) (*keyIndex, error) {
	c.funcsMu.RLock()
	defer c.funcsMu.RUnlock()
	fc := c.funcs[fn]
	if fc == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
	ki := fc.keyTypes[keyType]
	if ki == nil {
		return nil, fmt.Errorf("%w: %q for function %q", ErrUnknownKeyType, keyType, fn)
	}
	return ki, nil
}

// functionIndexes resolves a function's immutable key-type snapshot.
// The returned functionCache is safe to iterate without any lock
// (copy-on-write registration); its keyIndex pointers stay valid
// forever (key types are never removed).
func (c *Cache) functionIndexes(fn string) (*functionCache, error) {
	c.funcsMu.RLock()
	fc := c.funcs[fn]
	c.funcsMu.RUnlock()
	if fc == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
	return fc, nil
}

// EffectiveConfig returns the configuration actually in force — the
// constructor's input with defaults applied and out-of-range values
// clamped (see Config field docs). Useful for diagnostics: what a
// daemon logs at startup should be what the cache does, not what the
// operator wrote.
func (c *Cache) EffectiveConfig() Config {
	return c.cfg
}

// entryByID resolves a live entry; lock-free.
func (c *Cache) entryByID(id ID) *entry {
	return c.entries.load(id)
}

// dropout draws the random-dropout coin (§3.4), returning the uniform
// roll so a traced lookup can report how close the draw came to the
// rate. roll is -1 when dropout is disabled (no draw happens).
func (c *Cache) dropout() (roll float64, out bool) {
	if c.cfg.DropoutRate <= 0 {
		return -1, false
	}
	c.rngMu.Lock()
	roll = c.rng.Float64()
	c.rngMu.Unlock()
	return roll, roll < c.cfg.DropoutRate
}

// LookupResult reports the outcome of a cache lookup.
type LookupResult struct {
	// Hit is true when a cached value within the similarity threshold
	// was found.
	Hit bool
	// Dropout is true when the random-dropout mechanism skipped the
	// cache (the lookup is reported as a miss without querying, §3.4).
	Dropout bool
	// Value is the cached result (nil on miss).
	Value any
	// Distance is the distance to the nearest neighbour examined, or -1
	// if no entry lies within the search radius (SearchRadius·Threshold
	// once Threshold is above 0; at 0 the radius is unbounded, so the
	// index was empty) or the query dropped out.
	Distance float64
	// Threshold is the similarity threshold in force at lookup time.
	Threshold float64
	// Entry is a snapshot of the hit entry (zero on miss).
	Entry Entry
	// MissedAt records the clock time of a miss so the subsequent Put
	// can compute the computation overhead (§3.3: "the elapsed time
	// between the lookup() miss and the put() operation").
	MissedAt time.Time
	// Trace is the span trace ID this lookup was recorded under: the
	// caller's propagated ID, a freshly minted one when the lookup was
	// sampled, or zero when no span was recorded.
	Trace telemetry.TraceID
}

// LookupOptions bundles the optional behaviours of a lookup; the zero
// value is a plain Lookup.
type LookupOptions struct {
	// Accept, when non-nil, is consulted before committing to a hit: if
	// it returns false for the candidate value, the lookup is recorded
	// and reported as a miss, and the entry's access frequency — and
	// therefore its importance — is left untouched. Callers that can
	// only consume certain value representations (the wire service can
	// only ship []byte) use this so an entry the caller never receives
	// does not earn hit credit.
	Accept func(value any) bool
	// Refine post-processes a hit; see LookupRefined.
	Refine Refiner
	// Trace forces span recording under this trace ID (typically
	// propagated from a remote caller over the wire protocol). Zero
	// means "sample locally".
	Trace telemetry.TraceID
}

// Lookup queries the cache for fn's result keyed by key under keyType
// (§3.4). On a hit the entry's access frequency — and therefore its
// importance — is updated. Lookup errors only for unregistered
// functions or key types, and for a key of another length than the key
// type's (see KeyTypeSpec.Dim).
func (c *Cache) Lookup(fn, keyType string, key vec.Vector) (LookupResult, error) {
	return c.lookup(fn, keyType, key, LookupOptions{})
}

// LookupOpts is Lookup with the full option set (accept veto, refiner,
// trace propagation).
func (c *Cache) LookupOpts(fn, keyType string, key vec.Vector, opts LookupOptions) (LookupResult, error) {
	return c.lookup(fn, keyType, key, opts)
}

// lookup is the shared read path behind Lookup, LookupRefined, and
// LookupOpts. It holds no lock while returning.
//
// Lookups purge on demand: expired entries are filtered at read time,
// and only when the query actually observes one does the lookup take
// the admission lock, purge, and re-run the query (an expired nearest
// neighbour must not mask a live, slightly farther one). The common
// nothing-expired read therefore never touches the admission lock;
// routine reclamation is left to puts and the janitor.
//
// Span recording is sampled by outcome: hits produce a span only when
// the lookup is traced — forced by a propagated trace ID or
// sampled 1-in-64 off the clock read the lookup already paid for —
// while misses, dropouts, and errors always produce one (they are the
// decisions worth debugging and are rare by comparison). Stage clocks
// and the tuner snapshot are reserved for traced lookups, so the
// always-recorded outcomes stay at one ring write with no extra clock
// reads or tuner lock.
func (c *Cache) lookup(fn, keyType string, key vec.Vector, opts LookupOptions) (LookupResult, error) {
	now := c.clk.Now()
	ki, err := c.keyIndexFor(fn, keyType)
	if err == nil {
		err = ki.admit(key, false)
	}
	if err != nil {
		if c.spans != nil {
			c.recordLookupSpan(nil, fn, keyType, now, spanFields{
				outcome: telemetry.OutcomeError, errText: err.Error(),
				dist: -1, roll: -1, probes: -1, trace: opts.Trace,
			})
		}
		return LookupResult{}, err
	}
	res := LookupResult{Distance: -1, Threshold: ki.tuner.Threshold(), MissedAt: now}
	traced := c.spans != nil && (opts.Trace != 0 || now.UnixNano()&spanSampleMask == 0)
	roll, out := c.dropout()
	if out {
		ki.ctr.dropouts.Add(1)
		res.Dropout = true
		if c.spans != nil {
			res.Trace = c.recordLookupSpan(ki, fn, keyType, now, spanFields{
				outcome: telemetry.OutcomeDropout, dist: -1, threshold: res.Threshold,
				roll: roll, probes: -1, trace: opts.Trace, detailed: traced,
			})
		}
		return res, nil
	}
	var stages []telemetry.SpanStage
	var mark time.Time
	if traced {
		// Allocated here, not hoisted: a stack buffer declared before
		// the branch escapes via the span record and would cost every
		// untraced lookup a heap allocation.
		stages = make([]telemetry.SpanStage, 0, 3)
		mark = c.nowFast()
	}
	// Threshold-restricted k-nearest-neighbour query; k defaults to 1,
	// the paper's choice (§3.4).
	e, hitKey, dist, probes, ok, sawExpired := c.selectHit(ki, key, res.Threshold, now)
	if sawExpired {
		// The query ran into an expired entry still in the index; purge
		// and requery so staleness cannot mask a live neighbour. After
		// the purge nothing expiring at or before now remains, so one
		// retry is deterministic.
		c.maybePurgeExpired(now)
		var retryProbes int
		e, hitKey, dist, retryProbes, ok, _ = c.selectHit(ki, key, res.Threshold, now)
		probes += retryProbes
	}
	if traced {
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageProbe, DurationNs: int64(c.since(mark)), Probes: probes,
		})
		mark = c.nowFast()
	}
	res.Distance = dist
	if !ok || (opts.Accept != nil && !opts.Accept(e.value)) {
		// Either no in-threshold entry exists, or the caller cannot
		// consume the one that does; report a miss and record no access,
		// so an invisible hit does not inflate the entry's frequency or
		// the hit counters.
		n := ki.ctr.misses.Add(1)
		if ki.lat != nil && n&latSampleMask == 0 {
			ki.lat.Observe(c.since(now))
		}
		if c.tap != nil {
			c.tap.TapLookup(fn, keyType, key, dist, res.Threshold, false, now.UnixNano())
		}
		if c.spans != nil {
			if traced {
				stages = append(stages, telemetry.SpanStage{
					Name: telemetry.StageDecide, DurationNs: int64(c.since(mark)),
				})
			}
			res.Trace = c.recordLookupSpan(ki, fn, keyType, now, spanFields{
				outcome: telemetry.OutcomeMiss, dist: dist, threshold: res.Threshold,
				roll: roll, probes: probes, stages: stages, trace: opts.Trace, detailed: traced,
			})
		}
		return res, nil
	}
	e.accessCount.Add(1)
	e.lastAccess.Store(now.UnixNano())
	n := ki.ctr.hits.Add(1)
	if ki.lat != nil && n&latSampleMask == 0 {
		ki.lat.Observe(c.since(now))
	}
	c.ctr.savedCompute.Add(int64(e.cost))
	if c.tap != nil {
		c.tap.TapLookup(fn, keyType, key, dist, res.Threshold, true, now.UnixNano())
	}
	res.Hit = true
	res.Value = e.value
	res.Entry = e.snapshot()
	if traced {
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageDecide, DurationNs: int64(c.since(mark)),
		})
		mark = c.nowFast()
	}
	if opts.Refine != nil {
		// Refinement runs with no lock held: it may be arbitrarily
		// expensive application logic (warping an image, adjusting
		// coordinates, ...). The hit key is cloned so the refiner cannot
		// alias index memory.
		res.Value = opts.Refine(res.Value, hitKey.Clone(), key)
		if traced {
			stages = append(stages, telemetry.SpanStage{
				Name: telemetry.StageRefine, DurationNs: int64(c.since(mark)),
			})
		}
	}
	if traced {
		res.Trace = c.recordLookupSpan(ki, fn, keyType, now, spanFields{
			outcome: telemetry.OutcomeHit, dist: dist, threshold: res.Threshold,
			roll: roll, probes: probes, stages: stages, trace: opts.Trace, detailed: true,
		})
	}
	return res, nil
}

// PutRequest describes an entry to insert.
type PutRequest struct {
	// Keys supplies precomputed keys per key type. Key types not present
	// here are derived from Raw via their extractors; types with neither
	// are skipped.
	Keys map[string]vec.Vector
	// Raw is the raw input, used to derive keys for key types with
	// extractors (§3.7 cross-type propagation).
	Raw any
	// Value is the computation result to cache.
	Value any
	// Cost is the computation overhead. If zero and MissedAt is set, it
	// is computed as now − MissedAt.
	Cost time.Duration
	// MissedAt is the LookupResult.MissedAt of the preceding miss.
	MissedAt time.Time
	// Size is the entry footprint in bytes; 0 means "estimate".
	Size int
	// TTL overrides the cache's default validity period.
	TTL time.Duration
	// App names the inserting application (reputation, diagnostics).
	App string
	// Trace forces span recording under this trace ID (typically the
	// trace of the miss that triggered this put, propagated over the
	// wire). Zero means "sample locally".
	Trace telemetry.TraceID
}

// Put inserts a computation result, propagating the key to every
// registered key type of the function and feeding each key type's
// threshold tuner (§3.6 "Inserting and indexing cache entries"). It
// returns the new entry's id.
func (c *Cache) Put(fn string, req PutRequest) (ID, error) {
	now := c.clk.Now()
	c.maybePurgeExpired(now)
	fc, err := c.functionIndexes(fn)
	if err != nil {
		c.recordPutError(fn, now, req.Trace, err)
		return 0, err
	}
	kis := fc.kis
	traced := c.spans != nil && (req.Trace != 0 || now.UnixNano()&spanSampleMask == 0)
	var stages []telemetry.SpanStage
	var mark time.Time
	if traced {
		// Allocated under the branch so untraced puts pay nothing; see
		// the matching comment in lookup.
		stages = make([]telemetry.SpanStage, 0, 4)
		mark = c.nowFast()
	}
	if c.rep != nil && c.rep.Barred(req.App) {
		c.ctr.rejectedPuts.Add(1)
		err := fmt.Errorf("%w: %q", ErrAppBarred, req.App)
		c.recordPutError(fn, now, req.Trace, err)
		return 0, err
	}

	// Resolve one key per key type (parallel to kis; nil = skipped).
	// Extractors are application code and run with no lock held. All
	// keys pass the door (admit) before any state — index, tuner, or
	// entry table — is touched. The fixed-size buffer keeps the common
	// case (a handful of key types) off the heap.
	var keysBuf [4]vec.Vector
	var keys []vec.Vector
	if len(kis) > len(keysBuf) {
		keys = make([]vec.Vector, len(kis))
	} else {
		keys = keysBuf[:len(kis)]
	}
	resolved := 0
	for i, ki := range kis {
		k, explicit := req.Keys[fc.order[i]]
		if !explicit {
			if ki.spec.Extract == nil || req.Raw == nil {
				continue
			}
			var err error
			if k, err = ki.spec.Extract(req.Raw); err != nil {
				err = fmt.Errorf("core: extracting %q key: %w", fc.order[i], err)
				c.recordPutError(fn, now, req.Trace, err)
				return 0, err
			}
		}
		if err := ki.admit(k, true); err != nil {
			if !explicit {
				err = fmt.Errorf("%w (extracted)", err)
			}
			c.recordPutError(fn, now, req.Trace, err)
			return 0, err
		}
		keys[i] = k
		resolved++
	}
	if resolved == 0 {
		c.recordPutError(fn, now, req.Trace, ErrNoKey)
		return 0, ErrNoKey
	}
	if traced {
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageResolve, DurationNs: int64(c.since(mark)),
		})
		mark = c.nowFast()
	}

	cost := req.Cost
	if cost <= 0 && !req.MissedAt.IsZero() {
		cost = now.Sub(req.MissedAt)
	}
	if cost < 0 {
		cost = 0
	}
	size := req.Size
	if size <= 0 {
		size = estimateSize(req.Value)
		for _, k := range keys {
			size += k.SizeBytes()
		}
	}
	ttl := req.TTL
	if ttl <= 0 {
		ttl = c.cfg.DefaultTTL
	}

	// Feed Algorithm 1 per key index with the key's nearest neighbour
	// within the search radius as of now, before it is inserted
	// (putNeighbor). With nothing within the radius the tuner observes no
	// neighbour, as for an empty index. Tuner and reputation table
	// synchronize themselves; the value comparison (user code) runs with
	// no lock held. The first resolved key type's neighbour distance and
	// threshold flow into the put span's decision fields.
	spanDist, spanThreshold, spanSet := -1.0, 0.0, false
	for i, ki := range kis {
		if keys[i] == nil {
			continue
		}
		threshold := ki.tuner.Threshold()
		nid, ndist, ok := c.putNeighbor(ki, keys[i], searchRadius(threshold))
		if traced && !spanSet {
			spanSet = true
			spanThreshold = threshold
			if ok {
				spanDist = ndist
			}
		}
		if !ok {
			ki.tuner.ObservePut(0, false, false)
			continue
		}
		neighbor := c.entryByID(ID(nid))
		same := neighbor != nil && c.equal(neighbor.value, req.Value)
		within := ndist <= threshold
		ki.tuner.ObservePut(ndist, same, true)
		if c.rep != nil && neighbor != nil {
			c.rep.Observe(neighbor.app, within, same)
			if c.rep.Barred(neighbor.app) {
				c.removeAppEntries(neighbor.app)
			}
		}
	}
	if traced {
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageTune, DurationNs: int64(c.since(mark)),
		})
		mark = c.nowFast()
	}

	id := ID(c.nextID.Add(1))
	e := &entry{
		id:         id,
		value:      req.Value,
		cost:       cost,
		size:       size,
		app:        req.App,
		insertedAt: now,
		expiresAt:  now.Add(ttl),
		owners:     make([]owner, 0, resolved),
	}
	// §3.3: "the access frequency is initialized to 1".
	e.accessCount.Store(1)
	e.lastAccess.Store(now.UnixNano())

	// Insert into the key indices first and publish to the entry table
	// after, under admitMu: a racing lookup that sees the index entry but
	// not the entry record treats it as a miss, and a racing invalidation
	// or purge finds nothing to remove, so the put orders after it. The
	// reverse order would let eviction unlink the entry while its index
	// insertions are still in flight, leaking index nodes. From here on
	// the entry's owners hold its own copies of the keys, so the log and
	// the tap see what the index holds, whatever the caller later does
	// with its arrays.
	for i, ki := range kis {
		if keys[i] == nil {
			continue
		}
		if owned := ki.insert(id, keys[i]); owned != nil {
			e.owners = append(e.owners, owner{ki: ki, key: owned})
		}
	}
	if traced {
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageInsert, DurationNs: int64(c.since(mark)),
		})
		mark = c.nowFast()
	}
	logged := c.store != nil && !c.restoring.Load()
	var durRec StoreEntry
	if logged {
		durRec = e.record()
	}
	c.admitMu.Lock()
	c.publishLocked(e)
	if logged {
		// Under admitMu, so the log order is the admit order: no delete
		// record for this entry can precede its put record.
		c.store.LogPut(durRec)
	}
	// Evict before the entry joins the victim heap: the paper replaces
	// the victim WITH the new entry (§3.6), never the new entry itself.
	evicted, cause := c.evictLocked()
	c.enqueueLocked(e)
	c.admitMu.Unlock()
	fc.stats.puts.Add(1)
	if c.tap != nil {
		// Pooled slices under the branch (the tap only borrows them;
		// see Tap.TapPut): building from keysBuf directly would make
		// the stack buffer escape on every untapped put, and fresh
		// slices per call would make every put feed the GC.
		tb := tapBufPool.Get().(*tapBuf)
		tb.kts, tb.keys = tb.kts[:0], tb.keys[:0]
		for _, o := range e.owners {
			tb.kts = append(tb.kts, o.ki.spec.Name)
			tb.keys = append(tb.keys, o.key)
		}
		c.tap.TapPut(fn, tb.kts, tb.keys, uint64(id), size, int64(cost), now.UnixNano())
		tapBufPool.Put(tb)
	}
	if traced {
		detail := ""
		if evicted > 0 {
			detail = fmt.Sprintf("evicted %d (%s)", evicted, cause)
		}
		stages = append(stages, telemetry.SpanStage{
			Name: telemetry.StageAdmit, DurationNs: int64(c.since(mark)), Detail: detail,
		})
		trace := req.Trace
		if trace == 0 {
			trace = telemetry.NewTraceID()
		}
		st := kis[0].tuner.Stats()
		c.spans.Record(telemetry.Span{
			Trace:       trace,
			Start:       now.UnixNano(),
			DurationNs:  int64(c.since(now)),
			Layer:       "core",
			Function:    fn,
			KeyType:     fc.order[0],
			Outcome:     telemetry.OutcomePut,
			Distance:    spanDist,
			Threshold:   spanThreshold,
			DropoutRoll: -1,
			IndexKind:   string(kis[0].spec.Index),
			Probes:      -1,
			Tuner: &telemetry.TunerState{
				Threshold:   st.Threshold,
				Puts:        st.Puts,
				Active:      st.Active,
				Tightenings: st.Tightenings,
				Loosenings:  st.Loosenings,
			},
			Stages: stages,
		})
	}
	return id, nil
}

// putNeighbor returns what ki.idx.NearestWithin(key, r) answers at this
// instant: the pre-insertion neighbour Algorithm 1 is fed.
func (c *Cache) putNeighbor(ki *keyIndex, key vec.Vector, r float64) (id index.ID, dist float64, ok bool) {
	ki.mu.RLock()
	n, _, ok := ki.idx.NearestWithin(key, r)
	ki.mu.RUnlock()
	return n.ID, n.Dist, ok
}

// recordPutError records an always-retained error span for a rejected
// put (no-op when spans are detached). Put errors are rare and are
// exactly the decisions an operator greps /trace/spans for.
func (c *Cache) recordPutError(fn string, start time.Time, trace telemetry.TraceID, err error) {
	if c.spans == nil {
		return
	}
	if trace == 0 {
		trace = telemetry.NewTraceID()
	}
	c.spans.Record(telemetry.Span{
		Trace:       trace,
		Start:       start.UnixNano(),
		DurationNs:  int64(c.since(start)),
		Layer:       "core",
		Function:    fn,
		Outcome:     telemetry.OutcomeError,
		Err:         err.Error(),
		Distance:    -1,
		DropoutRoll: -1,
		Probes:      -1,
	})
}

// selectHit runs the threshold-restricted kNN query and picks the hit
// entry. It returns the nearest-neighbour distance (-1 if no entry lies
// within the search radius, see SearchRadius), the index probe count for
// this query, and ok=false on a miss.
// Entries past their expiration time are treated as absent; sawExpired
// reports that at least one was encountered so the caller can purge and
// retry.
// With LookupK > 1, within-threshold neighbours vote by value equality
// and the largest group's closest member wins (ties break toward the
// closer group).
func (c *Cache) selectHit(ki *keyIndex, key vec.Vector, threshold float64, now time.Time) (_ *entry, _ vec.Vector, dist float64, probes int, ok, sawExpired bool) {
	k := c.cfg.LookupK
	if k <= 1 {
		var n index.Neighbor
		var found bool
		r := searchRadius(threshold)
		ki.mu.RLock()
		n, probes, found = ki.idx.NearestWithin(key, r)
		ki.mu.RUnlock()
		if !found {
			return nil, nil, -1, probes, false, false
		}
		var e *entry
		if n.Dist <= threshold {
			// nil when the index briefly referenced a freed (or not yet
			// published) entry; treat as a miss.
			e = c.entryByID(ID(n.ID))
		}
		if e != nil && e.expiresAt.After(now) {
			return e, n.Key, n.Dist, probes, true, false
		}
		return nil, nil, n.Dist, probes, false, e != nil
	}
	var ns []index.Neighbor
	ki.mu.RLock()
	ns, probes = ki.idx.KNearestProbed(key, k)
	ki.mu.RUnlock()
	if len(ns) == 0 {
		return nil, nil, -1, probes, false, false
	}
	nearest := ns[0].Dist
	// Resolve within-threshold candidates (lock-free entry loads), then
	// group by value equality — Equal is user code and runs unlocked.
	type cand struct {
		e    *entry
		key  vec.Vector
		dist float64
	}
	cands := make([]cand, 0, len(ns))
	for _, n := range ns {
		if n.Dist > threshold {
			continue
		}
		if e := c.entries.load(ID(n.ID)); e != nil {
			if !e.expiresAt.After(now) {
				// An expired entry occupies a slot in the k-set and may
				// displace live neighbours; have the caller purge+retry.
				sawExpired = true
				continue
			}
			cands = append(cands, cand{e, n.Key, n.Dist})
		}
	}
	type group struct {
		rep    *entry
		repKey vec.Vector
		dist   float64
		votes  int
	}
	var groups []group
	for _, cd := range cands {
		placed := false
		for gi := range groups {
			if c.equal(groups[gi].rep.value, cd.e.value) {
				groups[gi].votes++
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, group{rep: cd.e, repKey: cd.key, dist: cd.dist, votes: 1})
		}
	}
	if len(groups) == 0 {
		return nil, nil, nearest, probes, false, sawExpired
	}
	best := 0
	for gi := 1; gi < len(groups); gi++ {
		if groups[gi].votes > groups[best].votes ||
			(groups[gi].votes == groups[best].votes && groups[gi].dist < groups[best].dist) {
			best = gi
		}
	}
	return groups[best].rep, groups[best].repKey, nearest, probes, true, sawExpired
}

// publishLocked makes e live: visible in the entry table and counted
// against the capacity bounds. Caller holds admitMu and follows up with
// enqueueLocked before releasing it.
func (c *Cache) publishLocked(e *entry) {
	c.entries.store(e)
	c.count.Add(1)
	c.bytes.Add(int64(e.size))
}

// enqueueLocked enters a published entry into the victim and expiry
// heaps. Caller holds admitMu.
func (c *Cache) enqueueLocked(e *entry) {
	c.victims.Push(e, c.policy.Score(e.meta()), uint64(e.id))
	c.expiry.Push(e, Score(e.expiresAt.UnixNano()), uint64(e.id))
	c.updateNextExpiryLocked()
}

// overBound names the capacity bound the cache currently exceeds
// ("entries", "bytes", or "" when within both).
func (c *Cache) overBound() string {
	if c.cfg.MaxEntries > 0 && c.count.Load() > int64(c.cfg.MaxEntries) {
		return "entries"
	}
	if c.cfg.MaxBytes > 0 && c.bytes.Load() > c.cfg.MaxBytes {
		return "bytes"
	}
	return ""
}

// evictLocked enforces the capacity bounds by evicting the policy's
// victims until they hold or no candidate is left. Caller holds admitMu,
// which serializes evictions so two racing puts cannot both evict for
// the same overflow. Returns how many entries were evicted and which
// bound first forced it ("entries", "bytes", or ""), so the admitting
// put's span can name the eviction cause.
func (c *Cache) evictLocked() (evicted int, cause string) {
	for c.victims.Len() > 0 {
		bound := c.overBound()
		if bound == "" {
			break
		}
		if cause == "" {
			cause = bound
		}
		e := Victim(c.policy, &c.victims, (*entry).meta)
		c.removeEntryLocked(e.id, false)
		evicted++
		c.ctr.evictions.Add(1)
	}
	return evicted, cause
}

// removeEntryLocked removes a live entry from the table, both heaps and
// its owner indices, and settles the accounting. Returns the removed
// entry, or nil when id is not live. Removals before the deadline
// (evictions, invalidations) are logged as tombstones for replay;
// expirations are not — recovery drops them by their absolute deadline.
// Caller holds admitMu; each owner's index lock comes after it in the
// documented order.
func (c *Cache) removeEntryLocked(id ID, expired bool) *entry {
	e := c.entries.loadAndDelete(id)
	if e == nil {
		return nil
	}
	c.victims.Remove(e)
	c.expiry.Remove(e)
	c.updateNextExpiryLocked()
	for _, o := range e.owners {
		o.ki.remove(e.id)
	}
	c.bytes.Add(-int64(e.size))
	c.count.Add(-1)
	if c.store != nil && !expired {
		c.store.LogDelete(uint64(id))
	}
	return e
}

// updateNextExpiryLocked republishes the expiry head's deadline for the
// lock-free expiry check. Caller holds admitMu.
func (c *Cache) updateNextExpiryLocked() {
	next := Score(math.MaxInt64)
	if c.expiry.Len() > 0 {
		_, next = c.expiry.Min()
	}
	c.nextExpiry.Store(int64(next))
}

// removeAppEntries purges every entry inserted by app (used when the
// reputation system bars an application).
func (c *Cache) removeAppEntries(app string) {
	var ids []ID
	c.entries.forEach(func(e *entry) bool {
		if e.app == app {
			ids = append(ids, e.id)
		}
		return true
	})
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	for _, id := range ids {
		if c.removeEntryLocked(id, false) != nil {
			c.ctr.evictions.Add(1)
		}
	}
}

// maybePurgeExpired clears expired entries if any are pending. The
// common nothing-expired case is a single atomic load. Called from
// write paths (Put, snapshot capture) — lookups never purge and instead
// filter expired entries at read time.
func (c *Cache) maybePurgeExpired(now time.Time) {
	if now.UnixNano() < c.nextExpiry.Load() {
		return
	}
	c.admitMu.Lock()
	c.purgeExpiredLocked(now)
	c.admitMu.Unlock()
}

// purgeExpiredLocked clears all entries whose validity period has passed
// (§3.6: the management thread "clears all (at the same time) expired
// entries"). It is invoked lazily on every operation and explicitly by
// the janitor. Caller holds admitMu. Returns the number of expirations.
func (c *Cache) purgeExpiredLocked(now time.Time) int {
	purged := 0
	for c.expiry.Len() > 0 {
		e, _ := c.expiry.Min()
		if e.expiresAt.After(now) {
			break
		}
		c.removeEntryLocked(e.id, true)
		c.ctr.expirations.Add(1)
		purged++
	}
	return purged
}

// PurgeExpired removes expired entries immediately and reports how many
// were cleared.
func (c *Cache) PurgeExpired() int {
	now := c.clk.Now()
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	return c.purgeExpiredLocked(now)
}

// NextExpiry returns the earliest pending expiration time, used by the
// janitor to schedule its wake-up ("sets the next wake-up time according
// to the expiration time of the new head item", §4.2).
func (c *Cache) NextExpiry() (time.Time, bool) {
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	if c.expiry.Len() == 0 {
		return time.Time{}, false
	}
	e, _ := c.expiry.Min()
	return e.expiresAt, true
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return int(c.count.Load()) }

// Bytes returns the total size of live entries.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// TunerStats returns the threshold tuner's state for (fn, keyType).
func (c *Cache) TunerStats(fn, keyType string) (TunerStats, error) {
	ki, err := c.keyIndexFor(fn, keyType)
	if err != nil {
		return TunerStats{}, err
	}
	return ki.tuner.Stats(), nil
}

// ForceThreshold activates (fn, keyType)'s tuner at a fixed threshold,
// used by experiments that sweep thresholds (Figure 9).
func (c *Cache) ForceThreshold(fn, keyType string, threshold float64) error {
	ki, err := c.keyIndexFor(fn, keyType)
	if err != nil {
		return err
	}
	ki.tuner.ForceActivate(threshold)
	return nil
}

// Reputation returns the reputation table, or nil when disabled.
func (c *Cache) Reputation() *Reputation { return c.rep }

// Stats returns a snapshot of cache counters. Lookup and put totals
// are derived by summing the per-(function, key type) series under the
// function-table read lock; every count is still read from an atomic,
// so Stats never blocks the data path beyond a funcsMu read share.
// Stats.Misses preserves its historical semantics: a dropout counts as
// a miss too.
func (c *Cache) Stats() Stats {
	s := Stats{
		RejectedPuts:  c.ctr.rejectedPuts.Load(),
		Evictions:     c.ctr.evictions.Load(),
		Expirations:   c.ctr.expirations.Load(),
		Invalidations: c.ctr.invalidations.Load(),
		SavedCompute:  time.Duration(c.ctr.savedCompute.Load()),
	}
	c.funcsMu.RLock()
	for _, fc := range c.funcs {
		s.Puts += fc.stats.puts.Load()
		for _, ki := range fc.kis {
			d := ki.ctr.dropouts.Load()
			s.Hits += ki.ctr.hits.Load()
			s.Misses += ki.ctr.misses.Load() + d
			s.Dropouts += d
		}
	}
	c.funcsMu.RUnlock()
	s.Entries = int(c.count.Load())
	s.Bytes = c.bytes.Load()
	return s
}

// Stats counts cache activity.
type Stats struct {
	Hits         int64
	Misses       int64
	Dropouts     int64
	Puts         int64
	RejectedPuts int64
	Evictions    int64
	Expirations  int64
	// Invalidations counts entries dropped by explicit invalidation
	// calls.
	Invalidations int64
	Entries       int
	Bytes         int64
	// SavedCompute totals the recorded computation overhead of every
	// hit: the time the applications did not have to spend.
	SavedCompute time.Duration
}

// HitRate returns hits / (hits + misses), or 0 when no lookups occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// estimateSize approximates the footprint of a cached value.
func estimateSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case []byte:
		return len(x)
	case string:
		return len(x)
	case vec.Vector:
		return x.SizeBytes()
	case []float64:
		return 8 * len(x)
	case bool:
		return 1
	case int, int64, uint64, float64:
		return 8
	case int32, uint32, float32:
		return 4
	default:
		// A conservative default for structured values.
		return 64
	}
}
