// Package serve is the model-serving runtime behind cmd/metis-serve. It is
// built as a transport-agnostic inference engine with codec layers on top:
//
//   - engine.go (this file): Engine — an atomic-pointer model registry with
//     lock-free hot reload, server-wide admission control, and the core
//     Predict API returning typed errors. The engine knows nothing about
//     HTTP.
//   - codec.go: the wire codecs — JSON helpers and the binary row-major
//     float64 batch format (application/x-metis-batch) for high-throughput
//     clients, with a pooled scratch path for allocation-free serving loops.
//   - http.go: the HTTP layer — the v2 route surface, the v1 shim, and the
//     Prometheus /metrics rendering.
//   - uds.go: the framed unix-domain-socket transport — the same binary
//     batch payloads without the HTTP machinery, for co-located clients
//     that need the full in-process rate.
//
// Serving rides the flat-array tree representations (dtree.Compiled, and
// dtree.Quantized when the artifact carries one) — evaluation walks
// immutable arrays, so the hot path takes no locks and any number of
// request goroutines predict concurrently; the only shared writes are
// atomic stat counters, and a hot reload swaps the whole registry through
// one atomic pointer store. This is the §6.4 deployment story of the paper
// as a daemon: the distilled controller is small and cheap enough to answer
// per-decision queries at data-plane rates.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/histo"
	"repro/internal/metis/dtree"
	"repro/internal/parallel"
)

// Ext is the conventional artifact file extension scanned by LoadDir.
const Ext = ".metis"

// DefaultMaxBatch is the per-request row cap when Config.MaxBatch is 0.
const DefaultMaxBatch = 1 << 16

// Typed errors surfaced by Engine.Predict. The HTTP layer maps them to
// status codes; embedded callers can match them with errors.Is/As.
var (
	// ErrBusy means the engine's in-flight admission limit is reached; the
	// caller should retry after a short backoff (HTTP 503 + Retry-After).
	ErrBusy = errors.New("serve: server at capacity, retry later")
	// ErrEmptyBatch means a predict call carried zero rows.
	ErrEmptyBatch = errors.New("serve: empty batch")
)

// UnknownModelError reports a predict against a name absent from the
// registry (HTTP 404).
type UnknownModelError struct{ Name string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("serve: unknown model %q", e.Name)
}

// BatchSizeError reports a batch exceeding the engine's row cap (HTTP 413).
type BatchSizeError struct{ Rows, Max int }

func (e *BatchSizeError) Error() string {
	return fmt.Sprintf("serve: batch of %d rows exceeds the %d-row limit", e.Rows, e.Max)
}

// DimensionError reports an input row whose width disagrees with the model
// (HTTP 400).
type DimensionError struct {
	Model     string
	Row       int
	Got, Want int
}

func (e *DimensionError) Error() string {
	return fmt.Sprintf("serve: input %d has %d features, model %q wants %d", e.Row, e.Got, e.Model, e.Want)
}

// Model is one servable entry in the registry: a tree in one of the two
// serving representations plus the artifact metadata it was loaded with.
type Model struct {
	Name string
	// Kind is the artifact kind the model was loaded from (a raw dtree/tree
	// is compiled at load time).
	Kind string
	Meta map[string]string
	// Path is the artifact file the model was loaded from — the continuous
	// distillation loop (internal/shadow) overwrites it atomically when it
	// refits or rolls back a student.
	Path string
	// Generation is the model's refit generation, parsed from the artifact's
	// "generation" metadata (0 for a freshly trained seed student). Each
	// shadow-triggered refit increments it; a rollback restores the parent's.
	Generation int64
	// Compiled is the pointer-chasing float-threshold representation; set
	// for dtree/tree and dtree/compiled artifacts.
	Compiled *dtree.Compiled
	// Quantized is the flat breadth-first bin-threshold representation; set
	// for dtree/quantized artifacts, and preferred by the predict path when
	// present (same decisions bit for bit, better layout).
	Quantized *dtree.Quantized

	requests    atomic.Int64
	predictions atomic.Int64
}

// The shape accessors dispatch over whichever serving representation the
// model carries, so transports and tooling never reach through Compiled or
// Quantized directly.

// NumFeatures returns the input width the model expects.
func (m *Model) NumFeatures() int {
	if m.Quantized != nil {
		return m.Quantized.NumFeatures
	}
	return m.Compiled.NumFeatures
}

// NumNodes returns the model's flattened node count.
func (m *Model) NumNodes() int {
	if m.Quantized != nil {
		return m.Quantized.NumNodes()
	}
	return m.Compiled.NumNodes()
}

// NumClasses returns the class count (0 for regression models).
func (m *Model) NumClasses() int {
	if m.Quantized != nil {
		return m.Quantized.NumClasses
	}
	return m.Compiled.NumClasses
}

// OutDim returns the regression output width (0 for classifiers).
func (m *Model) OutDim() int {
	if m.Quantized != nil {
		return m.Quantized.OutDim
	}
	return m.Compiled.OutDim
}

// IsRegression reports whether the model predicts vectors rather than
// classes.
func (m *Model) IsRegression() bool {
	if m.Quantized != nil {
		return m.Quantized.IsRegression()
	}
	return m.Compiled.IsRegression()
}

// registry is one immutable generation of the model set. The engine swaps
// whole generations through an atomic pointer: predict paths load the
// pointer once and never observe a half-reloaded set.
type registry struct {
	dir      string
	models   map[string]*Model
	skipped  []string
	loadedAt time.Time
}

// Config carries the engine knobs. The zero value serves with all cores,
// the default batch cap, and no in-flight limit.
type Config struct {
	// Workers sizes the server-wide inference pool shared by ALL in-flight
	// batch predictions (0 = GOMAXPROCS, 1 = serial). Unlike the old
	// per-request Workers semantics, concurrent batches never multiply
	// goroutines: a batch recruits helpers only while pool slots are free
	// and otherwise runs on its own request goroutine.
	Workers int
	// MaxBatch caps the rows accepted per predict call (0 = DefaultMaxBatch).
	// Oversized requests fail with *BatchSizeError.
	MaxBatch int
	// MaxInflight caps concurrently admitted predict calls (0 = unlimited).
	// Calls beyond the cap fail fast with ErrBusy instead of queueing.
	MaxInflight int
	// DispatchWorkers sizes the per-connection decode/encode worker pool of
	// the pipelined socket mode (0 = 2 workers, growing with cores up to 4).
	// Distinct from Workers, which sizes the server-wide inference pool.
	DispatchWorkers int
	// SHMDir is where per-connection shared-memory segments are created
	// ("" = /dev/shm when present, else the OS temp dir). Must be a
	// filesystem both peers can reach.
	SHMDir string
	// SHMSlots and SHMSlotSize cap (and, for clients requesting defaults,
	// set) the shared-memory ring geometry (0 = shmring defaults). Mostly a
	// test knob — small slots force the oversized-payload fallback.
	SHMSlots    int
	SHMSlotSize int
	// Shards splits the serving core into per-core engine shards, each
	// owning a consistent-hash partition of the model set (0 = GOMAXPROCS).
	// Read by NewShardedEngine; a plain Engine ignores it.
	Shards int
	// Tenants maps tenant names to weighted-fair-admission weights. When
	// set (on a sharded engine), the single MaxInflight fail-fast semaphore
	// is replaced by per-tenant weighted fair queuing with MaxInflight as
	// the concurrency capacity; tenants outside the map get weight 1.
	Tenants map[string]float64
	// TenantQueue bounds each tenant's admission queue (0 = 16). Arrivals
	// beyond it fail with *BusyError carrying a computed Retry-After.
	TenantQueue int
}

// Mirror receives a copy of every successful classification predict after
// the response is computed, across all transports. It is the engine's tap
// for the continuous-distillation loop (internal/shadow): the implementation
// decides — cheaply, this is the hot path — whether to sample the batch, and
// must copy rows/actions before returning because both alias caller-owned
// scratch (transport decode buffers, shared-memory slabs) that is recycled
// as soon as the predict call returns.
type Mirror interface {
	// Observe is called with the model that served the request (its Name and
	// Generation identify which student chose the actions), the request's
	// feature rows, and those actions. actions is nil for regression models.
	// Observe must never block.
	Observe(m *Model, rows [][]float64, actions []int)
	// Snapshot returns the mirror's live counters for /v2/stats and /metrics.
	Snapshot() MirrorSnapshot
}

// MirrorSnapshot is a point-in-time view of a Mirror's accounting.
type MirrorSnapshot struct {
	// Sampled counts batches copied to the shadow queue; Dropped counts
	// sampled batches discarded because the queue was full (drop-and-count:
	// mirroring never backpressures serving). Scored counts batches the
	// shadow worker has compared against the teacher; Stale counts batches
	// it discarded because a generation other than the one now serving
	// answered them (they were queued across a refit or rollback reload).
	Sampled, Dropped, Scored, Stale int64
	// Disagreements counts scored rows where teacher and student differ;
	// Refits and Rollbacks count controller actions.
	Disagreements, Refits, Rollbacks int64
	// Models holds the per-model view, keyed by serving name.
	Models map[string]MirrorModelSnapshot
}

// MirrorModelSnapshot is one model's shadow-scoring state.
type MirrorModelSnapshot struct {
	Sampled, Dropped, Scored, Stale, Disagreements, Refits, Rollbacks int64
	// Fidelity is the windowed teacher-agreement estimate in [0, 1], or -1
	// while the window has not yet filled.
	Fidelity float64
}

// Engine is the transport-agnostic serving core: a hot-reloadable model
// registry plus admission-controlled batch inference. All methods are safe
// for concurrent use; Predict never blocks on Reload.
type Engine struct {
	cfg Config

	reg atomic.Pointer[registry]
	// reloadMu serializes Reload calls only — the predict path never touches
	// it.
	reloadMu sync.Mutex
	// sem holds the spare-worker tokens of the shared inference pool
	// (capacity Workers-1: the request goroutine itself is the first
	// worker). nil when the engine is configured serial.
	sem chan struct{}
	// inflight holds the admission tokens (nil = unlimited).
	inflight chan struct{}

	start    time.Time
	requests atomic.Int64
	errors   atomic.Int64
	reloads  atomic.Int64
	// shm is the shared-memory transport accounting (see shmCounters).
	shm shmCounters
	// latency records nanoseconds per successful predict call, across all
	// transports (HTTP and both socket framings share this one histogram).
	latency *histo.Histogram
	// mirror, when set, taps every successful predict (see Mirror). An
	// atomic pointer-to-interface so the hot path pays one load when no
	// mirror is installed.
	mirror atomic.Pointer[Mirror]
}

// NewEngine loads every servable artifact in dir into a fresh engine.
func NewEngine(dir string, cfg Config) (*Engine, error) {
	reg, err := loadRegistry(dir)
	if err != nil {
		return nil, err
	}
	return newEngineFromRegistry(reg, cfg), nil
}

// newEngineFromRegistry builds an engine around an already-loaded registry
// generation — the constructor core shared by NewEngine and the sharded
// engine, whose shards each serve one partition of a registry loaded once.
func newEngineFromRegistry(reg *registry, cfg Config) *Engine {
	e := &Engine{cfg: cfg, start: time.Now(), latency: histo.New()}
	if w := parallel.Workers(cfg.Workers); w > 1 {
		e.sem = make(chan struct{}, w-1)
	}
	if cfg.MaxInflight > 0 {
		e.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	e.reg.Store(reg)
	return e
}

// LoadDir builds an engine with the default Config from every *.metis
// artifact in dir. Tree artifacts (dtree/tree) are compiled on load;
// compiled-tree artifacts are served as-is; artifacts of any other kind are
// skipped and listed in Skipped. A model is named by its artifact's "name"
// metadata, falling back to the file's base name.
func LoadDir(dir string) (*Engine, error) { return NewEngine(dir, Config{}) }

// loadRegistry scans dir into one immutable registry generation.
func loadRegistry(dir string) (*registry, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		return nil, fmt.Errorf("serve: scan %s: %w", dir, err)
	}
	if len(entries) == 0 {
		if _, statErr := os.Stat(dir); statErr != nil {
			return nil, fmt.Errorf("serve: %w", statErr)
		}
		return nil, fmt.Errorf("serve: no %s artifacts in %s", Ext, dir)
	}
	reg := &registry{dir: dir, models: map[string]*Model{}, loadedAt: time.Now()}
	sort.Strings(entries)
	for _, path := range entries {
		// Parse the container (cheap, checksum-verified) and dispatch on the
		// kind tag before decoding: non-tree artifacts — including kinds
		// this build doesn't know — are skipped without paying for (or
		// choking on) their payload decode.
		a, err := artifact.Open(path)
		if err != nil {
			return nil, err
		}
		servable := a.Kind == artifact.KindTree || a.Kind == artifact.KindCompiledTree ||
			a.Kind == artifact.KindQuantizedTree
		if !servable {
			reg.skipped = append(reg.skipped, fmt.Sprintf("%s (kind %s)", filepath.Base(path), a.Kind))
			continue
		}
		model, err := a.Decode()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := a.Meta["name"]
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), Ext)
		}
		entry := &Model{Name: name, Kind: a.Kind, Meta: a.Meta, Path: path}
		if g, err := strconv.ParseInt(a.Meta["generation"], 10, 64); err == nil && g > 0 {
			entry.Generation = g
		}
		// The checksum protects bytes, not invariants: a malformed tree could
		// panic or loop the predict handler, so every representation is
		// validated before it enters the registry.
		switch m := model.(type) {
		case *dtree.Tree:
			if entry.Compiled, err = m.Compile(); err != nil {
				return nil, fmt.Errorf("serve: compile %s: %w", path, err)
			}
			err = entry.Compiled.Validate()
		case *dtree.Compiled:
			entry.Compiled = m
			err = m.Validate()
		case *dtree.Quantized:
			entry.Quantized = m
			err = m.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", path, err)
		}
		// Quantization is bit-identical to the compiled form, so every
		// classification tree gets the flat serving representation up front —
		// that is what the transports' fused predict fast path keys on. Trees
		// that cannot quantize simply serve through the compiled walker.
		if entry.Quantized == nil && entry.Compiled != nil && !entry.Compiled.IsRegression() {
			if q, qerr := entry.Compiled.Quantize(); qerr == nil {
				entry.Quantized = q
			}
		}
		if _, dup := reg.models[name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q (set distinct \"name\" metadata)", name)
		}
		reg.models[name] = entry
	}
	if len(reg.models) == 0 {
		return nil, fmt.Errorf("serve: no servable artifacts in %s (skipped: %s)", dir, strings.Join(reg.skipped, ", "))
	}
	return reg, nil
}

// Reload loads dir ("" = the currently served directory) into a fresh
// registry generation and swaps it in atomically. In-flight predictions
// keep using the generation they loaded; new requests see the new set on
// their next registry load — no lock is taken on the predict path. Stats of
// models that survive the reload (matched by name) are carried over; a
// failed load leaves the current generation serving untouched.
func (e *Engine) Reload(dir string) error {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if dir == "" {
		dir = e.reg.Load().dir
	}
	reg, err := loadRegistry(dir)
	if err != nil {
		return err
	}
	e.swapRegistryLocked(reg)
	return nil
}

// swapRegistry atomically installs a new registry generation with stats
// carry-over — the reload core, also driven by the sharded engine when it
// re-partitions an externally loaded registry across its shards.
func (e *Engine) swapRegistry(reg *registry) {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	e.swapRegistryLocked(reg)
}

func (e *Engine) swapRegistryLocked(reg *registry) {
	old := e.reg.Load()
	for name, m := range reg.models {
		if prev, ok := old.models[name]; ok && m != prev {
			// In-flight requests on the old generation may still bump prev
			// after this copy; that sliver of drift is accepted — counters
			// are operational telemetry, not an exactness contract.
			m.requests.Store(prev.requests.Load())
			m.predictions.Store(prev.predictions.Load())
		}
	}
	e.reg.Store(reg)
	e.reloads.Add(1)
}

// Dir returns the artifact directory backing the current registry
// generation.
func (e *Engine) Dir() string { return e.reg.Load().dir }

// LoadedAt returns when the current registry generation was loaded.
func (e *Engine) LoadedAt() time.Time { return e.reg.Load().loadedAt }

// Reloads returns how many reloads have been applied.
func (e *Engine) Reloads() int64 { return e.reloads.Load() }

// Models returns the current generation's entries sorted by name.
func (e *Engine) Models() []*Model {
	reg := e.reg.Load()
	out := make([]*Model, 0, len(reg.models))
	for _, m := range reg.models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Model looks one model up in the current generation.
func (e *Engine) Model(name string) (*Model, bool) {
	m, ok := e.reg.Load().models[name]
	return m, ok
}

// Skipped lists artifacts that were present but not servable in the current
// generation.
func (e *Engine) Skipped() []string { return e.reg.Load().skipped }

// maxBatch returns the effective per-request row cap.
func (e *Engine) maxBatch() int {
	if e.cfg.MaxBatch > 0 {
		return e.cfg.MaxBatch
	}
	return DefaultMaxBatch
}

// Prediction is the outcome of one predict call: Actions for classification
// models, Values for regression models — exactly one is set, with one entry
// per input row. Values rows alias the model's immutable value array and
// must not be modified.
type Prediction struct {
	Model   string
	Actions []int
	Values  [][]float64
}

// Predict runs rows through the named model on the shared inference pool.
// It validates admission (ErrBusy), the model name (*UnknownModelError),
// the batch size (ErrEmptyBatch, *BatchSizeError), and every row's width
// (*DimensionError) before touching the model. Failed calls are not
// accounted in the error counter here — each transport's error path is its
// single accounting point.
func (e *Engine) Predict(name string, rows [][]float64) (*Prediction, error) {
	p := &Prediction{}
	if err := e.PredictInto(name, rows, p); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto is Predict writing into a caller-owned Prediction: when
// p.Actions or p.Values has capacity from an earlier call it is reused, so a
// serving loop (the binary codec path, the unix-socket transport) runs
// steady-state predictions without growing the heap. On error p is left
// unmodified.
func (e *Engine) PredictInto(name string, rows [][]float64, p *Prediction) error {
	t0 := time.Now()
	e.requests.Add(1)
	if e.inflight != nil {
		select {
		case e.inflight <- struct{}{}:
			defer func() { <-e.inflight }()
		default:
			return ErrBusy
		}
	}
	m, ok := e.reg.Load().models[name]
	if !ok {
		return &UnknownModelError{Name: name}
	}
	if len(rows) == 0 {
		return ErrEmptyBatch
	}
	if max := e.maxBatch(); len(rows) > max {
		return &BatchSizeError{Rows: len(rows), Max: max}
	}
	features := m.NumFeatures()
	for i, row := range rows {
		if len(row) != features {
			return &DimensionError{Model: m.Name, Row: i, Got: len(row), Want: features}
		}
	}
	m.requests.Add(1)
	m.predictions.Add(int64(len(rows)))
	p.Model = m.Name
	if m.IsRegression() {
		out := growRows(p.Values, len(rows))
		if q := m.Quantized; q != nil {
			e.forEachChunk(len(rows), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = q.PredictReg(rows[i])
				}
			})
		} else {
			e.forEachChunk(len(rows), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = m.Compiled.PredictReg(rows[i])
				}
			})
		}
		p.Actions, p.Values = nil, out
	} else {
		out := growInts(p.Actions, len(rows))
		if q := m.Quantized; q != nil {
			e.forEachChunk(len(rows), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = q.Predict(rows[i])
				}
			})
		} else {
			e.forEachChunk(len(rows), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = m.Compiled.Predict(rows[i])
				}
			})
		}
		p.Actions, p.Values = out, nil
	}
	e.latency.Record(time.Since(t0).Nanoseconds())
	if mp := e.mirror.Load(); mp != nil {
		// The mirror copies what it samples before returning; rows and
		// p.Actions stay caller-owned.
		(*mp).Observe(m, rows, p.Actions)
	}
	return nil
}

// Latency returns the engine's predict-latency histogram (nanoseconds per
// successful call, all transports combined). Callers may read quantiles or
// merge it; they must not reset it.
func (e *Engine) Latency() *histo.Histogram { return e.latency }

// SetMirror installs (or, with nil, removes) the engine's predict mirror.
// Safe to call while serving: in-flight predicts see either the old or the
// new mirror.
func (e *Engine) SetMirror(m Mirror) {
	if m == nil {
		e.mirror.Store(nil)
		return
	}
	e.mirror.Store(&m)
}

// mirrorSnapshot returns the installed mirror's counters, or nil when no
// mirror is set.
func (e *Engine) mirrorSnapshot() *MirrorSnapshot {
	mp := e.mirror.Load()
	if mp == nil {
		return nil
	}
	snap := (*mp).Snapshot()
	return &snap
}

// The Backend accessor surface (see front.go): the flat engine is the
// single-shard, untenanted implementation.

// predictTenant is PredictInto under a tenant identity. A flat engine has no
// tenant gating — admission is the MaxInflight fail-fast semaphore inside
// PredictInto — so the identity is ignored.
func (e *Engine) predictTenant(tenant, name string, rows [][]float64, p *Prediction) error {
	return e.PredictInto(name, rows, p)
}

func (e *Engine) config() Config                      { return e.cfg }
func (e *Engine) addError()                           { e.errors.Add(1) }
func (e *Engine) requestsTotal() int64                { return e.requests.Load() }
func (e *Engine) errorsTotal() int64                  { return e.errors.Load() }
func (e *Engine) startTime() time.Time                { return e.start }
func (e *Engine) shmc() *shmCounters                  { return &e.shm }
func (e *Engine) shardStats() []ShardStats            { return nil }
func (e *Engine) tenantStats() map[string]TenantStats { return nil }
func (e *Engine) latencySummary() map[string]any      { return latencyBody(e.latency) }
func (e *Engine) shardIndex(string) int               { return 0 }
func (e *Engine) shardCount() int                     { return 1 }

// busyRetryAfter estimates when a rejected caller should come back: with a
// fail-fast semaphore the expected wait is one in-flight call's service
// time, approximated by the engine's mean predict latency.
func (e *Engine) busyRetryAfter() time.Duration {
	return clampRetryAfter(time.Duration(e.latency.Mean()))
}

// statFlushEvery is the serving loops' stats-batching window: per-batch
// counter and latency updates accumulate locally and flush every this many
// batches (or on idle, or when the target model changes).
const statFlushEvery = 64

// statBatch accumulates the per-predict accounting of a serving loop — the
// engine/model request counters and the latency samples — so the steady
// state pays a handful of atomic adds per statFlushEvery batches instead of
// five per batch. A loop owns one statBatch, notes every fast-path predict
// into it, and must flush before parking idle and at teardown.
type statBatch struct {
	e     *Engine
	m     *Model
	reqs  int64
	preds int64
	lat   [statFlushEvery]int64
	n     int
}

// note records one successful predict of preds rows on (e, m).
func (st *statBatch) note(e *Engine, m *Model, preds, latNs int64) {
	if st.e != e || st.m != m {
		st.flush()
		st.e, st.m = e, m
	}
	st.reqs++
	st.preds += preds
	st.lat[st.n] = latNs
	st.n++
	if st.n == statFlushEvery {
		st.flush()
	}
}

// flush publishes the accumulated counters. Safe to call when empty.
func (st *statBatch) flush() {
	if st.e == nil || st.reqs == 0 {
		return
	}
	st.e.requests.Add(st.reqs)
	st.m.requests.Add(st.reqs)
	st.m.predictions.Add(st.preds)
	st.e.latency.RecordBatch(st.lat[:st.n])
	st.reqs, st.preds, st.n = 0, 0, 0
}

// flatSlotCheck classifies a flat-matrix predict for the fast path:
// handled=false means the caller must take the generic decode+predict path
// (non-quantized or regression model, a mirror tapping predictions, an
// empty batch, or a response that would not fit the slot); a non-nil error
// is a terminal request failure. Error paths account the request themselves.
func (e *Engine) flatSlotCheck(name string, nRows, features, slotCap int) (m *Model, handled bool, err error) {
	m, ok := e.reg.Load().models[name]
	if !ok {
		e.requests.Add(1)
		return nil, true, &UnknownModelError{Name: name}
	}
	q := m.Quantized
	if q == nil || q.IsRegression() || e.mirror.Load() != nil || nRows == 0 || 13+nRows*4 > slotCap {
		return nil, false, nil
	}
	// One width check for the whole batch: the wire format guarantees every
	// row has the header's width, so the per-row validation loop of the
	// generic path collapses to this single comparison.
	if features != q.NumFeatures {
		e.requests.Add(1)
		return nil, true, &DimensionError{Model: m.Name, Row: 0, Got: features, Want: q.NumFeatures}
	}
	return m, true, nil
}

// flatSlotRun fuses quantized classification with response encoding: each
// row's action goes straight from the tree walk into the response slot as a
// little-endian int32 — no intermediate Actions slice, no second pass.
func (e *Engine) flatSlotRun(m *Model, flat []float64, nRows, features int, slot []byte, st *statBatch, t0 time.Time) []byte {
	q := m.Quantized
	out := slot[:13+nRows*4]
	copy(out, batchMagic)
	out[4] = batchKindActions
	binary.LittleEndian.PutUint32(out[5:9], uint32(nRows))
	binary.LittleEndian.PutUint32(out[9:13], 1)
	e.forEachChunk(nRows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			binary.LittleEndian.PutUint32(out[13+i*4:],
				uint32(int32(q.Predict(flat[i*features:(i+1)*features]))))
		}
	})
	st.note(e, m, int64(nRows), time.Since(t0).Nanoseconds())
	return out
}

// predictFlatSlot is the shared-memory transport's fast path (see Backend).
// The tenant identity is ignored on a flat engine.
func (e *Engine) predictFlatSlot(tenant, name string, flat []float64, nRows, features int, slot []byte, st *statBatch) ([]byte, bool, error) {
	t0 := time.Now()
	m, handled, err := e.flatSlotCheck(name, nRows, features, cap(slot))
	if !handled || err != nil {
		return nil, handled, err
	}
	if e.inflight != nil {
		select {
		case e.inflight <- struct{}{}:
			defer func() { <-e.inflight }()
		default:
			e.requests.Add(1)
			return nil, true, ErrBusy
		}
	}
	return e.flatSlotRun(m, flat, nRows, features, slot, st, t0), true, nil
}

// growInts resizes s to n entries, reusing its backing array when it fits.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// growRows resizes s to n row slots, reusing its backing array when it fits.
func growRows(s [][]float64, n int) [][]float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([][]float64, n)
}

// predictChunk is the per-task granularity of the shared pool: single tree
// evaluations cost nanoseconds, so work is handed out in blocks large
// enough to amortize scheduling.
const predictChunk = 512

// forEachChunk splits [0, n) into predictChunk blocks and runs them on the
// request goroutine plus any helpers it can recruit from the shared pool.
// Recruitment is non-blocking: when every pool slot is busy serving other
// requests, the batch simply runs serially on its own goroutine — total
// inference goroutines across ALL in-flight requests never exceed
// Config.Workers.
func (e *Engine) forEachChunk(n int, fn func(lo, hi int)) {
	tasks := (n + predictChunk - 1) / predictChunk
	if tasks <= 1 || e.sem == nil {
		fn(0, n)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			lo := t * predictChunk
			hi := min(lo+predictChunk, n)
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
recruit:
	for h := 0; h < tasks-1; h++ {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-e.sem }()
				work()
			}()
		default:
			break recruit
		}
	}
	work()
	wg.Wait()
}
