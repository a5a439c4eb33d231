package serve

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chash"
	"repro/internal/histo"
)

// ShardedEngine is the scale-out serving core: N per-core Engine shards,
// each owning a disjoint partition of the model set assigned by a
// consistent-hash ring over model names. Requests route to the owning shard
// with one map lookup and no cross-shard locks; every shard has its own
// registry pointer, inference pool, and stat counters, so shards share no
// hot cache lines. Admission moves up to this layer: either the classic
// MaxInflight fail-fast semaphore, or — when Config.Tenants is set —
// per-tenant weighted fair queuing (see fairGate).
//
// Consistent hashing makes the partition a pure function of (model name,
// shard count): a Reload with an unchanged shard count never migrates a
// surviving model, and Reshard moves only ~1/N of the models per shard
// added. Both swap state through one atomic pointer, so in-flight predicts
// keep the engines (and registries) they started on and never fail from a
// remap.
type ShardedEngine struct {
	cfg   Config
	state atomic.Pointer[shardSet]
	// reloadMu serializes Reload and Reshard; the predict path never takes it.
	reloadMu sync.Mutex
	// gate is the weighted-fair admission control (nil when Config.Tenants
	// is empty); inflight is the classic fail-fast semaphore used instead.
	gate     *fairGate
	inflight chan struct{}
	start    time.Time
	reloads  atomic.Int64
	errors   atomic.Int64
	// rejected counts calls turned away at this layer (gate or semaphore) —
	// they never reach a shard, so requestsTotal folds them back in.
	rejected atomic.Int64
	// requestsBase and latencyBase carry the counters of shard sets retired
	// by Reshard, so totals survive re-partitioning.
	requestsBase atomic.Int64
	latencyBase  *histo.Histogram
	shm          shmCounters
	// mirror remembers the installed Mirror so Reshard can re-install it on
	// the replacement shards.
	mirror atomic.Pointer[Mirror]
}

// shardSet is one immutable generation of the shard layout.
type shardSet struct {
	shards []*Engine
	ring   *chash.Ring
	// assign maps every known model name to its owning shard index; names
	// not in the map (unknown models) fall back to the ring so the error is
	// produced — and counted — on a deterministic shard.
	assign   map[string]int
	dir      string
	skipped  []string
	loadedAt time.Time
}

// shardMembers names the ring members for an n-shard layout. The names are
// stable ("shard-0"…) so growing the set preserves survivors' assignments.
func shardMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

// NewShardedEngine loads every servable artifact in dir and partitions the
// set across cfg.Shards per-core engines (0 = GOMAXPROCS). With one shard
// and no Tenants the behavior is byte-identical to NewEngine's.
func NewShardedEngine(dir string, cfg Config) (*ShardedEngine, error) {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	reg, err := loadRegistry(dir)
	if err != nil {
		return nil, err
	}
	s := &ShardedEngine{cfg: cfg, start: time.Now(), latencyBase: histo.New()}
	if len(cfg.Tenants) > 0 {
		capacity := cfg.MaxInflight
		if capacity <= 0 {
			// Weighted fairness needs a finite capacity to arbitrate; default
			// to a small multiple of the core count.
			capacity = 4 * runtime.GOMAXPROCS(0)
		}
		s.gate = newFairGate(capacity, cfg.Tenants, cfg.TenantQueue)
	} else if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	st, err := buildShardSet(reg.models, n, cfg, reg.dir, reg.skipped, reg.loadedAt)
	if err != nil {
		return nil, err
	}
	s.state.Store(st)
	return s, nil
}

// buildShardSet partitions models across n fresh engines. Shard configs
// drop MaxInflight (admission lives at the sharded layer) and the knobs the
// shards never read.
func buildShardSet(models map[string]*Model, n int, cfg Config, dir string, skipped []string, loadedAt time.Time) (*shardSet, error) {
	ring, err := chash.New(shardMembers(n), 0)
	if err != nil {
		return nil, err
	}
	parts := make([]map[string]*Model, n)
	for i := range parts {
		parts[i] = map[string]*Model{}
	}
	assign := make(map[string]int, len(models))
	for name, m := range models {
		idx := ring.LookupIndex(name)
		parts[idx][name] = m
		assign[name] = idx
	}
	shardCfg := cfg
	shardCfg.MaxInflight = 0
	shards := make([]*Engine, n)
	for i := range shards {
		shards[i] = newEngineFromRegistry(&registry{
			dir: dir, models: parts[i], loadedAt: loadedAt,
		}, shardCfg)
	}
	return &shardSet{
		shards: shards, ring: ring, assign: assign,
		dir: dir, skipped: skipped, loadedAt: loadedAt,
	}, nil
}

// route returns the engine owning name in the current generation.
func (s *ShardedEngine) route(name string) *Engine {
	st := s.state.Load()
	if idx, ok := st.assign[name]; ok {
		return st.shards[idx]
	}
	return st.shards[st.ring.LookupIndex(name)]
}

// admit runs the sharded layer's admission control for tenant (""= keyed by
// the model name). It returns a non-nil release func on success.
func (s *ShardedEngine) admit(tenant, model string) (func(), error) {
	if s.gate != nil {
		if tenant == "" {
			tenant = model
		}
		release, err := s.gate.acquire(tenant)
		if err != nil {
			s.rejected.Add(1)
			return nil, err
		}
		return release, nil
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			return func() { <-s.inflight }, nil
		default:
			s.rejected.Add(1)
			return nil, ErrBusy
		}
	}
	return func() {}, nil
}

// Predict routes rows to the shard owning the named model. Semantics match
// Engine.Predict, with admission applied at this layer.
func (s *ShardedEngine) Predict(name string, rows [][]float64) (*Prediction, error) {
	p := &Prediction{}
	if err := s.PredictInto(name, rows, p); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto is Predict writing into a caller-owned Prediction.
func (s *ShardedEngine) PredictInto(name string, rows [][]float64, p *Prediction) error {
	return s.predictTenant("", name, rows, p)
}

func (s *ShardedEngine) predictTenant(tenant, name string, rows [][]float64, p *Prediction) error {
	release, err := s.admit(tenant, name)
	if err != nil {
		return err
	}
	defer release()
	return s.route(name).PredictInto(name, rows, p)
}

func (s *ShardedEngine) predictFlatSlot(tenant, name string, flat []float64, nRows, features int, slot []byte, st *statBatch) ([]byte, bool, error) {
	t0 := time.Now()
	e := s.route(name)
	// Eligibility first, admission second: a request the fast path cannot
	// serve falls back to the generic path without ever holding (and
	// double-charging) an admission token.
	m, handled, err := e.flatSlotCheck(name, nRows, features, cap(slot))
	if !handled || err != nil {
		return nil, handled, err
	}
	release, err := s.admit(tenant, name)
	if err != nil {
		return nil, true, err
	}
	defer release()
	return e.flatSlotRun(m, flat, nRows, features, slot, st, t0), true, nil
}

// Models returns the union of the shards' model sets, sorted by name.
func (s *ShardedEngine) Models() []*Model {
	st := s.state.Load()
	var out []*Model
	for _, e := range st.shards {
		out = append(out, e.Models()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Model looks a model up on its owning shard.
func (s *ShardedEngine) Model(name string) (*Model, bool) {
	return s.route(name).Model(name)
}

// Dir returns the artifact directory backing the current generation.
func (s *ShardedEngine) Dir() string { return s.state.Load().dir }

// Skipped lists artifacts that were present but not servable.
func (s *ShardedEngine) Skipped() []string { return s.state.Load().skipped }

// LoadedAt returns when the current generation was loaded.
func (s *ShardedEngine) LoadedAt() time.Time { return s.state.Load().loadedAt }

// Reloads returns how many reloads and reshards have been applied.
func (s *ShardedEngine) Reloads() int64 { return s.reloads.Load() }

// Reload loads dir ("" = the current directory) and re-partitions the fresh
// registry across the existing shards. The shard count is unchanged, so by
// consistent-hash stability every surviving model stays on its shard — the
// swap is a per-shard registry store with stats carry, and in-flight
// predicts on the old generation run to completion untouched.
func (s *ShardedEngine) Reload(dir string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st := s.state.Load()
	if dir == "" {
		dir = st.dir
	}
	reg, err := loadRegistry(dir)
	if err != nil {
		return err
	}
	n := len(st.shards)
	parts := make([]map[string]*Model, n)
	for i := range parts {
		parts[i] = map[string]*Model{}
	}
	assign := make(map[string]int, len(reg.models))
	for name, m := range reg.models {
		idx := st.ring.LookupIndex(name)
		parts[idx][name] = m
		assign[name] = idx
	}
	for i, e := range st.shards {
		e.swapRegistry(&registry{dir: reg.dir, models: parts[i], loadedAt: reg.loadedAt})
	}
	next := &shardSet{
		shards: st.shards, ring: st.ring, assign: assign,
		dir: reg.dir, skipped: reg.skipped, loadedAt: reg.loadedAt,
	}
	s.state.Store(next)
	s.reloads.Add(1)
	return nil
}

// Reshard re-partitions the CURRENT model set across n fresh shards. Model
// entries move by pointer — per-model counters ride along — while in-flight
// predicts keep the retired engines, whose registries stay intact until the
// last reference drops: no predict ever fails because its model was mid-
// move. Retired shard counters fold into the engine-wide bases.
func (s *ShardedEngine) Reshard(n int) error {
	if n <= 0 {
		return fmt.Errorf("serve: reshard to %d shards", n)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st := s.state.Load()
	models := make(map[string]*Model, len(st.assign))
	for name, idx := range st.assign {
		if m, ok := st.shards[idx].Model(name); ok {
			models[name] = m
		}
	}
	next, err := buildShardSet(models, n, s.cfg, st.dir, st.skipped, st.loadedAt)
	if err != nil {
		return err
	}
	if mp := s.mirror.Load(); mp != nil {
		for _, e := range next.shards {
			e.SetMirror(*mp)
		}
	}
	// Publish the new layout first, then fold the retired shards' counters
	// into the bases: folding first would lose every predict that reached
	// the old shards while the fold ran. Predicts already in flight on the
	// old engines may still record a few samples after the snapshot; that
	// sliver of drift is accepted (telemetry, not an exactness contract).
	s.state.Store(next)
	for _, e := range st.shards {
		s.requestsBase.Add(e.requests.Load())
		s.latencyBase.Merge(e.latency)
	}
	s.reloads.Add(1)
	return nil
}

// SetMirror installs (or removes) the predict mirror on every shard.
func (s *ShardedEngine) SetMirror(m Mirror) {
	if m == nil {
		s.mirror.Store(nil)
	} else {
		s.mirror.Store(&m)
	}
	for _, e := range s.state.Load().shards {
		e.SetMirror(m)
	}
}

// Latency returns a merged snapshot of the shards' predict-latency
// histograms (plus retired generations).
func (s *ShardedEngine) Latency() *histo.Histogram {
	h := histo.New()
	h.Merge(s.latencyBase)
	for _, e := range s.state.Load().shards {
		h.Merge(e.latency)
	}
	return h
}

// Handler, ServeUDS, and ServeSHM serve the identical transport surface the
// flat engine exposes, through the shared front.
func (s *ShardedEngine) Handler() http.Handler         { return (&front{s}).handler() }
func (s *ShardedEngine) ServeUDS(l net.Listener) error { return (&front{s}).serveFramed(l, false) }
func (s *ShardedEngine) ServeSHM(l net.Listener) error { return (&front{s}).serveFramed(l, true) }

// SHMWakes returns how many doorbell frames the server has written.
func (s *ShardedEngine) SHMWakes() int64 { return s.shm.wakes.Load() }

// SHMConns returns how many connections are currently serving ring traffic.
func (s *ShardedEngine) SHMConns() int64 { return s.shm.conns.Load() }

// The Backend accessor surface (see front.go).

func (s *ShardedEngine) config() Config { return s.cfg }

func (s *ShardedEngine) maxBatch() int {
	if s.cfg.MaxBatch > 0 {
		return s.cfg.MaxBatch
	}
	return DefaultMaxBatch
}
func (s *ShardedEngine) addError()            { s.errors.Add(1) }
func (s *ShardedEngine) errorsTotal() int64   { return s.errors.Load() }
func (s *ShardedEngine) startTime() time.Time { return s.start }
func (s *ShardedEngine) shmc() *shmCounters   { return &s.shm }

// requestsTotal sums the live shards, the retired-shard base, and the calls
// rejected at this layer before reaching any shard — matching the flat
// engine's "admitted or rejected" counting.
func (s *ShardedEngine) requestsTotal() int64 {
	total := s.requestsBase.Load() + s.rejected.Load()
	for _, e := range s.state.Load().shards {
		total += e.requests.Load()
	}
	return total
}

func (s *ShardedEngine) mirrorSnapshot() *MirrorSnapshot {
	mp := s.mirror.Load()
	if mp == nil {
		return nil
	}
	snap := (*mp).Snapshot()
	return &snap
}

func (s *ShardedEngine) shardStats() []ShardStats {
	st := s.state.Load()
	out := make([]ShardStats, len(st.shards))
	for i, e := range st.shards {
		var preds int64
		reg := e.reg.Load()
		for _, m := range reg.models {
			preds += m.predictions.Load()
		}
		out[i] = ShardStats{
			Shard:       i,
			Models:      len(reg.models),
			Requests:    e.requests.Load(),
			Predictions: preds,
		}
	}
	return out
}

func (s *ShardedEngine) tenantStats() map[string]TenantStats {
	if s.gate == nil {
		return nil
	}
	return s.gate.snapshot()
}

func (s *ShardedEngine) latencySummary() map[string]any { return latencyBody(s.Latency()) }

func (s *ShardedEngine) busyRetryAfter() time.Duration {
	if s.gate != nil {
		return s.gate.retryAfter()
	}
	return clampRetryAfter(time.Duration(s.Latency().Mean()))
}

// dispatchWorkers mirrors Engine.dispatchWorkers for the sharded front.
func (s *ShardedEngine) dispatchWorkers() int {
	if s.cfg.DispatchWorkers > 0 {
		return s.cfg.DispatchWorkers
	}
	return max(2, min(4, runtime.GOMAXPROCS(0)))
}

func (s *ShardedEngine) shardIndex(model string) int {
	st := s.state.Load()
	if idx, ok := st.assign[model]; ok {
		return idx
	}
	return st.ring.LookupIndex(model)
}

func (s *ShardedEngine) shardCount() int { return len(s.state.Load().shards) }

// ShardCount returns the current number of shards.
func (s *ShardedEngine) ShardCount() int { return s.shardCount() }
