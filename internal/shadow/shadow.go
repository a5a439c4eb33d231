// Package shadow closes the teacher→student loop against live traffic — the
// paper's actual deployment story, run as a subsystem of the serving daemon.
//
// The serving engine mirrors a deterministic sampled fraction of successful
// predict batches (serve.Mirror) into per-model bounded queues; mirroring
// never blocks or backpressures the predict path — when a queue is full the
// batch is dropped and counted. One scorer goroutine per model drains its
// queue and replays each sampled row against the scenario's teacher DNN:
// agreement feeds a windowed fidelity estimator (internal/histo-backed), and
// disagreements are appended column-wise — teacher label, weight 1 — to the
// scenario's cached distillation corpus (dataset.Table).
//
// A refit controller watches the windowed fidelity. When it falls below the
// drift threshold, the controller refits the student incrementally from the
// updated corpus (scenario.Refitter — one CART fit, no trajectory re-rolls),
// writes the new student over the live artifact with lineage metadata
// ("generation" = parent+1, "parent" = the parent payload's CRC-32C), and
// atomically hot-reloads the engine: in-flight predicts finish on the old
// generation, zero requests fail. The new student then serves under
// probation while the loop keeps shadow-scoring it; if a full window
// measures WORSE fidelity than the drifted parent had at the refit trigger,
// the controller restores the archived parent artifact and reloads again —
// automatic rollback. Every generation (parents and refits alike) is
// archived under the shadow directory as <model>.gen<N>.metis, so the full
// lineage chain is replayable offline.
package shadow

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// Defaults for the zero-value Options knobs.
const (
	// DefaultWindow is the fidelity window in scored rows.
	DefaultWindow = 512
	// DefaultQueueDepth is the per-model mirror queue bound, in batches.
	DefaultQueueDepth = 64
	// DefaultDriftThreshold triggers a refit when windowed fidelity sinks
	// below it.
	DefaultDriftThreshold = 0.9
	// DefaultCooldownWindows is how many windows of scored rows drift
	// triggers stay suspended after a rollback or a failed refit, so a
	// persistently un-refittable model cannot thrash the registry.
	DefaultCooldownWindows = 10
	// DefaultScoreCap bounds how many rows of one sampled batch are copied
	// and teacher-scored.
	DefaultScoreCap = 128
)

// Teacher scores one feature row, returning the teacher's output vector (an
// action distribution for the classification students the loop shadows).
// scenario.Teacher satisfies it. The monitor queries a model's teacher only
// from that model's single scorer goroutine.
type Teacher interface {
	Query(in []float64) []float64
}

// Options configures a Monitor. The zero value of every field but Rate is
// usable (Rate ≤ 0 would sample nothing).
type Options struct {
	// Rate is the fraction of predict batches mirrored per model, in (0, 1].
	Rate float64
	// Seed drives the deterministic sampler (per-model streams are derived
	// from it; see sampler).
	Seed int64
	// Window is the fidelity window in scored rows (0 = DefaultWindow).
	Window int
	// DriftThreshold is the windowed fidelity below which a refit is
	// triggered (0 = DefaultDriftThreshold).
	DriftThreshold float64
	// QueueDepth bounds each model's mirror queue in batches
	// (0 = DefaultQueueDepth); overflow is dropped and counted.
	QueueDepth int
	// ScoreCap bounds how many rows of one sampled batch are copied and
	// teacher-scored (0 = DefaultScoreCap, negative = no cap). Large served
	// batches would otherwise make one sample cost hundreds of teacher
	// queries; a row prefix keeps shadow CPU and queue memory proportional
	// to the sample rate, and for the row-exchangeable batches the engine
	// serves a prefix estimates fidelity as well as the full batch.
	ScoreCap int
	// CooldownWindows suspends drift triggers for this many windows of
	// scored rows after a rollback or failed refit
	// (0 = DefaultCooldownWindows).
	CooldownWindows int
	// Dir is the shadow state directory: generation archives are written
	// here, and the scenario bridge resolves cached teachers and corpora
	// from it. Required for refits; a monitor without it only scores.
	Dir string
	// Workers bounds the goroutines a refit's CART fit may use
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Logf, when set, receives operational one-liners (enrollment, refits,
	// rollbacks, failures). Default: discard.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = DefaultDriftThreshold
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.CooldownWindows <= 0 {
		o.CooldownWindows = DefaultCooldownWindows
	}
	if o.ScoreCap == 0 {
		o.ScoreCap = DefaultScoreCap
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// ModelConfig enrolls one served model into the loop.
type ModelConfig struct {
	// Model is the serving name (must exist in the engine's registry and be
	// a classification model).
	Model string
	// Teacher scores sampled rows. Required.
	Teacher Teacher
	// Corpus is the distillation corpus disagreements are appended to, and
	// refits are fit from. Optional: without it (or Refit) the model is
	// score-only — fidelity is measured and exported, but drift never
	// triggers a refit.
	Corpus *dataset.Table
	// Refit fits a fresh student from the updated corpus, returning a model
	// accepted by artifact.SaveModel. Optional (see Corpus).
	Refit func(ds *dataset.Table) (any, error)
	// SaveCorpus persists the updated corpus after an accepted refit, so a
	// daemon restart resumes from the same base. Optional.
	SaveCorpus func(ds *dataset.Table) error
}

// sample is one mirrored predict batch: deep copies, because the engine's
// buffers are recycled the moment Observe returns. generation is the
// generation of the student that chose the actions.
type sample struct {
	rows       [][]float64
	actions    []int
	generation int64
}

// Engine is the slice of a serving engine the monitor needs: model lookup
// for enrollment, mirror installation, and reload to pick up refit
// artifacts. Both *serve.Engine and *serve.ShardedEngine satisfy it.
type Engine interface {
	Model(name string) (*serve.Model, bool)
	Models() []*serve.Model
	Reload(dir string) error
	SetMirror(m serve.Mirror)
}

// Monitor is the shadow-scoring subsystem: it implements serve.Mirror and
// owns one scorer/controller goroutine per enrolled model. Enroll before
// Start; Observe and Snapshot are safe for concurrent use afterwards.
type Monitor struct {
	engine  Engine
	opts    Options
	workers map[string]*worker

	started atomic.Bool
	closed  atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewMonitor returns an empty monitor over the engine. Enroll models (or
// EnrollScenarios), then Start.
func NewMonitor(e Engine, opts Options) *Monitor {
	opts.defaults()
	return &Monitor{
		engine:  e,
		opts:    opts,
		workers: map[string]*worker{},
		done:    make(chan struct{}),
	}
}

// Enroll registers one model for shadow scoring. It must be called before
// Start. The enrolled model must be servable, classification, and not
// already enrolled; with a Corpus its feature width must match the model's.
func (m *Monitor) Enroll(cfg ModelConfig) error {
	if m.started.Load() {
		return fmt.Errorf("shadow: enroll %q: monitor already started", cfg.Model)
	}
	if cfg.Teacher == nil {
		return fmt.Errorf("shadow: enroll %q: nil teacher", cfg.Model)
	}
	if _, dup := m.workers[cfg.Model]; dup {
		return fmt.Errorf("shadow: model %q enrolled twice", cfg.Model)
	}
	mod, ok := m.engine.Model(cfg.Model)
	if !ok {
		return fmt.Errorf("shadow: model %q is not served", cfg.Model)
	}
	if mod.IsRegression() {
		return fmt.Errorf("shadow: model %q is a regression model (the loop shadows classifiers)", cfg.Model)
	}
	if cfg.Corpus != nil && cfg.Corpus.NumFeatures() != mod.NumFeatures() {
		return fmt.Errorf("shadow: model %q wants %d features but the corpus has %d",
			cfg.Model, mod.NumFeatures(), cfg.Corpus.NumFeatures())
	}
	w := &worker{
		mon:   m,
		cfg:   cfg,
		smp:   newSampler(m.opts.Seed, cfg.Model, m.opts.Rate),
		est:   NewEstimator(m.opts.Window),
		queue: make(chan *sample, m.opts.QueueDepth),
		path:  mod.Path,
	}
	if err := w.readLiveArtifact(); err != nil {
		return fmt.Errorf("shadow: enroll %q: %w", cfg.Model, err)
	}
	m.workers[cfg.Model] = w
	refitting := "score-only"
	if w.canRefit() {
		refitting = fmt.Sprintf("corpus %d rows", cfg.Corpus.Len())
	}
	m.opts.Logf("shadow: enrolled %s (gen %d, checksum %s, %s)", cfg.Model, w.generation, w.checksum, refitting)
	return nil
}

// Enrolled returns the enrolled model names, sorted.
func (m *Monitor) Enrolled() []string {
	names := make([]string, 0, len(m.workers))
	for name := range m.workers {
		names = append(names, name)
	}
	sortStrings(names)
	return names
}

// Start spawns the scorer goroutines and installs the monitor as the
// engine's mirror. Idempotent.
func (m *Monitor) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	for _, w := range m.workers {
		m.wg.Add(1)
		go w.loop()
	}
	m.engine.SetMirror(m)
}

// Close detaches the mirror, drains what is already queued, and stops the
// scorer goroutines. Idempotent.
func (m *Monitor) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	m.engine.SetMirror(nil)
	close(m.done)
	m.wg.Wait()
}

// Observe implements serve.Mirror: assign the batch its per-model sequence
// number, and copy it onto the model's queue, stamped with the serving
// generation, when the sampler picks it. Non-blocking by construction — a
// full queue drops and counts.
func (m *Monitor) Observe(mod *serve.Model, rows [][]float64, actions []int) {
	w, ok := m.workers[mod.Name]
	if !ok || actions == nil {
		return
	}
	if _, pick := w.smp.next(); !pick {
		return
	}
	w.sampled.Add(1)
	n := len(rows)
	if cap := m.opts.ScoreCap; cap > 0 && n > cap {
		n = cap
	}
	s := &sample{rows: make([][]float64, n), actions: append([]int(nil), actions[:n]...), generation: mod.Generation}
	flat := make([]float64, n*len(rows[0]))
	for i, row := range rows[:n] {
		dst := flat[i*len(row) : (i+1)*len(row) : (i+1)*len(row)]
		copy(dst, row)
		s.rows[i] = dst
	}
	select {
	case w.queue <- s:
	default:
		w.dropped.Add(1)
	}
}

// Snapshot implements serve.Mirror.
func (m *Monitor) Snapshot() serve.MirrorSnapshot {
	snap := serve.MirrorSnapshot{Models: make(map[string]serve.MirrorModelSnapshot, len(m.workers))}
	for name, w := range m.workers {
		ms := serve.MirrorModelSnapshot{
			Sampled:       w.sampled.Load(),
			Dropped:       w.dropped.Load(),
			Scored:        w.scored.Load(),
			Stale:         w.stale.Load(),
			Disagreements: w.disagreements.Load(),
			Refits:        w.refits.Load(),
			Rollbacks:     w.rollbacks.Load(),
			Fidelity:      -1,
		}
		// The estimate is exported once a full window has been scored;
		// earlier it is too few rows to act on, so stats hide it too.
		if w.est.Ready() {
			ms.Fidelity = w.est.Fidelity()
		}
		snap.Models[name] = ms
		snap.Sampled += ms.Sampled
		snap.Dropped += ms.Dropped
		snap.Scored += ms.Scored
		snap.Stale += ms.Stale
		snap.Disagreements += ms.Disagreements
		snap.Refits += ms.Refits
		snap.Rollbacks += ms.Rollbacks
	}
	return snap
}

// sortStrings is sort.Strings without pulling sort into every import list.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// worker is one model's shadow state: the mirror-side sampler and queue
// (touched concurrently), the scorer/controller (single goroutine), and the
// counters stats readers poll.
type worker struct {
	mon *Monitor
	cfg ModelConfig
	smp *sampler
	est *Estimator

	queue chan *sample

	sampled, dropped, scored, stale  atomic.Int64
	disagreements, refits, rollbacks atomic.Int64

	// Controller state below is owned by the scorer goroutine.

	// path is the live artifact file; meta/checksum/generation mirror what
	// it currently holds.
	path       string
	meta       map[string]string
	checksum   string
	generation int64
	// scoredRows counts rows this worker has scored; cooldownUntil
	// suspends drift triggers while scoredRows is below it.
	scoredRows    uint64
	cooldownUntil uint64
	// probation is set between a refit and its accept/rollback verdict;
	// baseline is the drifted parent's fidelity at the refit trigger.
	probation     bool
	baseline      float64
	parentArchive string
	teacherBuf    []float64
}

// canRefit reports whether the worker has everything a refit needs.
func (w *worker) canRefit() bool {
	return w.cfg.Refit != nil && w.cfg.Corpus != nil && w.mon.opts.Dir != ""
}

// readLiveArtifact refreshes meta/checksum/generation from the live file.
func (w *worker) readLiveArtifact() error {
	a, err := artifact.Open(w.path)
	if err != nil {
		return err
	}
	w.meta = a.Meta
	w.checksum = fmt.Sprintf("%08x", artifact.Checksum(a.Payload))
	w.generation = 0
	if g, err := strconv.ParseInt(a.Meta["generation"], 10, 64); err == nil && g > 0 {
		w.generation = g
	}
	return nil
}

// Checksum returns the live artifact's payload CRC-32C (hex) as of the last
// controller action — the value a refit's "parent" metadata will carry.
// Meaningful before Start or from the scorer goroutine.
func (m *Monitor) Checksum(model string) string {
	if w, ok := m.workers[model]; ok {
		return w.checksum
	}
	return ""
}

// loop drains the queue until Close, then drains what is left and exits.
func (w *worker) loop() {
	defer w.mon.wg.Done()
	for {
		select {
		case s := <-w.queue:
			w.score(s)
		case <-w.mon.done:
			for {
				select {
				case s := <-w.queue:
					w.score(s)
				default:
					return
				}
			}
		}
	}
}

// servingGeneration is the generation of the student the engine serves now.
func (w *worker) servingGeneration() int64 {
	if mod, ok := w.mon.engine.Model(w.cfg.Model); ok {
		return mod.Generation
	}
	return w.generation
}

// score replays one sampled batch against the teacher, updates the fidelity
// window, appends disagreements to the corpus, and runs the controller.
// Scored and stale count batches — the same unit as sampled and dropped, so
// sampled == scored + stale + dropped holds once the queue drains.
//
// Only batches the serving generation answered are scored. After a refit or
// rollback the queue still holds batches the replaced generation served;
// scoring them would judge a refit on probation by its parent's answers, or
// a restored parent by the rolled-back refit's.
func (w *worker) score(s *sample) {
	if s.generation != w.servingGeneration() {
		w.stale.Add(1)
		return
	}
	defer w.scored.Add(1)
	for i, row := range s.rows {
		out := w.cfg.Teacher.Query(row)
		ta := argmax(out)
		agree := ta == s.actions[i]
		w.est.Record(agree)
		w.scoredRows++
		if !agree {
			w.disagreements.Add(1)
			if w.canRefit() {
				// Teacher-labeled, unit weight: the cached corpus carries
				// normalized (mean ≈ 1) fitting weights, so fresh rows enter
				// at the average influence of a historical sample.
				w.cfg.Corpus.AppendRow(row, ta, 1)
			}
		}
	}
	if w.probation {
		w.checkProbation()
	} else {
		w.maybeRefit()
	}
}

// maybeRefit triggers a refit when the windowed fidelity has sunk below the
// drift threshold.
func (w *worker) maybeRefit() {
	if !w.canRefit() || w.scoredRows < w.cooldownUntil || !w.est.Ready() {
		return
	}
	fid := w.est.Fidelity()
	if fid >= w.mon.opts.DriftThreshold {
		return
	}
	w.refit(fid)
}

// cooldown suspends drift triggers for the configured number of windows.
func (w *worker) cooldown() {
	w.cooldownUntil = w.scoredRows + uint64(w.mon.opts.CooldownWindows*w.mon.opts.Window)
}

// archivePath is the lineage archive file for one generation of this model.
func (w *worker) archivePath(gen int64) string {
	safe := strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == ':' {
			return '_'
		}
		return r
	}, w.cfg.Model)
	return filepath.Join(w.mon.opts.Dir, fmt.Sprintf("%s.gen%d%s", safe, gen, serve.Ext))
}

// refit fits a new student from the updated corpus, deploys it with lineage
// metadata, and puts it on probation against the drifted baseline.
func (w *worker) refit(baseline float64) {
	logf := w.mon.opts.Logf
	student, err := w.cfg.Refit(w.cfg.Corpus)
	if err != nil {
		logf("shadow: %s: refit failed (%v); cooling down", w.cfg.Model, err)
		w.cooldown()
		return
	}
	// Archive the serving parent first: rollback restores these bytes.
	parent := w.archivePath(w.generation)
	if err := copyFile(w.path, parent); err != nil {
		logf("shadow: %s: cannot archive parent (%v); refit skipped", w.cfg.Model, err)
		w.cooldown()
		return
	}
	meta := make(map[string]string, len(w.meta)+2)
	for k, v := range w.meta {
		meta[k] = v
	}
	meta["name"] = w.cfg.Model
	meta["generation"] = strconv.FormatInt(w.generation+1, 10)
	meta["parent"] = w.checksum
	if err := artifact.SaveModel(w.path, student, meta); err != nil {
		logf("shadow: %s: cannot write refit artifact (%v)", w.cfg.Model, err)
		w.cooldown()
		return
	}
	if err := w.mon.engine.Reload(""); err != nil {
		// The registry kept serving the old generation; restore the file so
		// disk matches what serves.
		logf("shadow: %s: reload of refit failed (%v); restoring parent", w.cfg.Model, err)
		if err := copyFile(parent, w.path); err != nil {
			logf("shadow: %s: parent restore failed: %v", w.cfg.Model, err)
		}
		w.cooldown()
		return
	}
	if err := w.readLiveArtifact(); err != nil {
		logf("shadow: %s: cannot re-read live artifact: %v", w.cfg.Model, err)
	}
	// Archive the new generation too — the lineage chain stays replayable
	// even after it is overwritten by the next refit.
	if err := copyFile(w.path, w.archivePath(w.generation)); err != nil {
		logf("shadow: %s: cannot archive gen %d: %v", w.cfg.Model, w.generation, err)
	}
	w.refits.Add(1)
	w.probation = true
	w.baseline = baseline
	w.parentArchive = parent
	w.est.Reset()
	logf("shadow: %s: refit deployed gen %d (parent %s, fidelity was %.4f, corpus %d rows)",
		w.cfg.Model, w.generation, meta["parent"], baseline, w.cfg.Corpus.Len())
}

// checkProbation judges a freshly deployed refit once a full window has been
// scored against it: worse than the drifted parent → rollback; otherwise the
// refit is accepted and the updated corpus persisted.
func (w *worker) checkProbation() {
	if !w.est.Ready() {
		return
	}
	logf := w.mon.opts.Logf
	fid := w.est.Fidelity()
	w.probation = false
	if fid < w.baseline {
		logf("shadow: %s: gen %d measured %.4f < parent's %.4f — rolling back",
			w.cfg.Model, w.generation, fid, w.baseline)
		w.rollback()
		return
	}
	// Persist before announcing: the "accepted" line means the generation
	// and the corpus it was grown from are both on disk.
	if w.cfg.SaveCorpus != nil {
		if err := w.cfg.SaveCorpus(w.cfg.Corpus); err != nil {
			logf("shadow: %s: corpus persist failed: %v", w.cfg.Model, err)
		}
	}
	logf("shadow: %s: gen %d accepted (fidelity %.4f ≥ %.4f)", w.cfg.Model, w.generation, fid, w.baseline)
}

// rollback restores the archived parent artifact and hot-reloads it back
// into service.
func (w *worker) rollback() {
	logf := w.mon.opts.Logf
	if err := copyFile(w.parentArchive, w.path); err != nil {
		logf("shadow: %s: rollback copy failed: %v", w.cfg.Model, err)
		w.cooldown()
		return
	}
	if err := w.mon.engine.Reload(""); err != nil {
		logf("shadow: %s: rollback reload failed: %v", w.cfg.Model, err)
		w.cooldown()
		return
	}
	if err := w.readLiveArtifact(); err != nil {
		logf("shadow: %s: cannot re-read live artifact: %v", w.cfg.Model, err)
	}
	w.rollbacks.Add(1)
	w.est.Reset()
	// The parent is known to be drifted — without a cooldown the controller
	// would immediately refit again from nearly the same corpus.
	w.cooldown()
	logf("shadow: %s: rolled back to gen %d (checksum %s)", w.cfg.Model, w.generation, w.checksum)
}

// argmax returns the index of the largest value (first on ties), matching
// how the serving trees argmax their leaf distributions.
func argmax(v []float64) int {
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// copyFile copies src over dst atomically (temp file + rename in dst's
// directory), the same discipline artifact.Save uses.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".shadow-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, in); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}
