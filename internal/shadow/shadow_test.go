package shadow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/metis/dtree"
	"repro/internal/serve"
)

// --- helpers -------------------------------------------------------------

// labelFn is a ground-truth labeler over 2-feature rows in [0,1]^2.
type labelFn func(x []float64) int

// funcTeacher adapts a labelFn to the Teacher interface: a one-hot
// 2-class distribution.
type funcTeacher struct{ f func(x []float64) int }

func (t funcTeacher) Query(in []float64) []float64 {
	out := []float64{0, 0}
	out[t.f(in)] = 1
	return out
}

// gridTable labels an n×n grid over [0,1]^2 — a small, fully deterministic
// distillation corpus.
func gridTable(t *testing.T, n int, f labelFn) *dataset.Table {
	t.Helper()
	var rows [][]float64
	var labels []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := []float64{(float64(i) + 0.5) / float64(n), (float64(j) + 0.5) / float64(n)}
			rows = append(rows, x)
			labels = append(labels, f(x))
		}
	}
	ds, err := dataset.FromRows(rows, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fitTable fits the standard small test tree.
func fitTable(t *testing.T, ds *dataset.Table) *dtree.Tree {
	t.Helper()
	tree, err := dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// newServed fits a tree on the corpus, saves it as a named artifact, and
// serves the directory. Returns the engine and the artifact path.
func newServed(t *testing.T, name string, corpus *dataset.Table, workers int) (*serve.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name+serve.Ext)
	if err := artifact.SaveModel(path, fitTable(t, corpus), map[string]string{"name": name}); err != nil {
		t.Fatal(err)
	}
	e, err := serve.NewEngine(dir, serve.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e, path
}

// randomBatch draws rows uniformly from [0,1]^2.
func randomBatch(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return rows
}

// waitSnapshot polls the monitor until cond holds or the deadline passes.
func waitSnapshot(t *testing.T, m *Monitor, what string, cond func(serve.MirrorSnapshot) bool) serve.MirrorSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := m.Snapshot()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; snapshot %+v", what, snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// logRecorder collects the monitor's operational log lines thread-safely.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func (l *logRecorder) dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// --- sampler -------------------------------------------------------------

// TestSamplerDeterminism: the sampled set is a pure function of (seed,
// model, sequence) — replaying the same traffic reproduces it exactly — and
// the rate is honored in expectation.
func TestSamplerDeterminism(t *testing.T) {
	const n = 1 << 14
	picksOf := func(seed int64, model string, rate float64) []bool {
		s := newSampler(seed, model, rate)
		out := make([]bool, n)
		for i := range out {
			_, out[i] = s.next()
		}
		return out
	}
	a, b := picksOf(42, "abr", 0.3), picksOf(42, "abr", 0.3)
	count := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs between identical samplers", i)
		}
		if a[i] {
			count++
		}
	}
	if lo, hi := n/4, n*35/100; count < lo || count > hi {
		t.Fatalf("rate 0.3 sampled %d of %d", count, n)
	}
	// Different seed or model → a different (pseudo-random) set.
	for name, other := range map[string][]bool{
		"seed":  picksOf(43, "abr", 0.3),
		"model": picksOf(42, "dcn", 0.3),
	} {
		same := 0
		for i := range a {
			if a[i] == other[i] {
				same++
			}
		}
		if same == n {
			t.Fatalf("changing the %s did not change the sampled set", name)
		}
	}
	// Edge rates.
	for i, pick := range picksOf(1, "m", 0) {
		if pick {
			t.Fatalf("rate 0 sampled batch %d", i)
		}
	}
	for i, pick := range picksOf(1, "m", 1) {
		if !pick {
			t.Fatalf("rate 1 skipped batch %d", i)
		}
	}
}

// --- estimator -----------------------------------------------------------

// TestEstimatorWindow: the estimate covers one to two windows, rotates out
// old agreement, and resets cleanly.
func TestEstimatorWindow(t *testing.T) {
	e := NewEstimator(100)
	if e.Ready() || e.Fidelity() != -1 {
		t.Fatalf("fresh estimator: ready=%v fidelity=%v", e.Ready(), e.Fidelity())
	}
	for i := 0; i < 100; i++ {
		e.Record(true)
	}
	if !e.Ready() || e.Fidelity() != 1 {
		t.Fatalf("after full agree window: ready=%v fidelity=%v", e.Ready(), e.Fidelity())
	}
	for i := 0; i < 50; i++ {
		e.Record(false)
	}
	if f := e.Fidelity(); f < 0.66 || f > 0.67 {
		t.Fatalf("mixed fidelity = %v, want 100/150", f)
	}
	for i := 0; i < 50; i++ {
		e.Record(false)
	}
	// The disagree window just rotated the agree window out entirely.
	if f := e.Fidelity(); f != 0 {
		t.Fatalf("after full disagree window: fidelity = %v, want 0", f)
	}
	e.Reset()
	if e.Ready() || e.Fidelity() != -1 || e.Rows() != 0 {
		t.Fatalf("after reset: ready=%v fidelity=%v rows=%d", e.Ready(), e.Fidelity(), e.Rows())
	}
}

// --- end-to-end sampling determinism ------------------------------------

// TestShadowCorpusDeterministicAcrossWorkers: identical serial traffic with
// the same seed yields a bit-identical sampled set — and therefore a
// bit-identical disagreement corpus — no matter how many inference workers
// the engine runs.
func TestShadowCorpusDeterministicAcrossWorkers(t *testing.T) {
	truth := func(x []float64) int {
		if x[0] > x[1] {
			return 1
		}
		return 0
	}
	flipped := func(x []float64) int { return 1 - truth(x) }

	corpusBytes := func(workers int) ([]byte, int64) {
		e, _ := newServed(t, "toy", gridTable(t, 20, truth), workers)
		corpus := gridTable(t, 4, truth)
		m := NewMonitor(e, Options{
			Rate:       0.5,
			Seed:       42,
			Window:     1 << 20, // never ready → never refits
			QueueDepth: 1 << 12, // deeper than the traffic → nothing drops
			Dir:        t.TempDir(),
		})
		err := m.Enroll(ModelConfig{
			Model:   "toy",
			Teacher: funcTeacher{flipped}, // disagrees wherever the tree matches truth
			Corpus:  corpus,
			Refit:   func(*dataset.Table) (any, error) { return nil, errors.New("unused") },
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			if _, err := e.Predict("toy", randomBatch(rng, 8)); err != nil {
				t.Fatal(err)
			}
		}
		snap := waitSnapshot(t, m, "queue drain", func(s serve.MirrorSnapshot) bool {
			return s.Scored == s.Sampled
		})
		if snap.Dropped != 0 {
			t.Fatalf("dropped %d batches with a deep queue", snap.Dropped)
		}
		if snap.Sampled == 0 || snap.Disagreements == 0 {
			t.Fatalf("no traffic shadow-scored: %+v", snap)
		}
		m.Close()
		data, err := corpus.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data, snap.Sampled
	}

	data1, sampled1 := corpusBytes(1)
	data3, sampled3 := corpusBytes(3)
	if sampled1 != sampled3 {
		t.Fatalf("sampled %d batches with 1 worker but %d with 3", sampled1, sampled3)
	}
	if string(data1) != string(data3) {
		t.Fatal("disagreement corpus differs between 1 and 3 inference workers")
	}
}

// --- overflow ------------------------------------------------------------

// TestShadowOverflowDrops: a stalled teacher fills the bounded queue; the
// predict path never blocks, overflow is dropped and counted, and the
// accounting identity sampled == scored + dropped holds after the drain
// (no reload happens, so no batch is stale).
func TestShadowOverflowDrops(t *testing.T) {
	truth := func(x []float64) int {
		if x[0] > 0.5 {
			return 1
		}
		return 0
	}
	e, _ := newServed(t, "toy", gridTable(t, 10, truth), 1)
	gate := make(chan struct{})
	stalled := funcTeacher{f: func(x []float64) int {
		<-gate // blocks until the gate closes, then returns immediately
		return truth(x)
	}}
	m := NewMonitor(e, Options{Rate: 1, Seed: 1, QueueDepth: 2})
	if err := m.Enroll(ModelConfig{Model: "toy", Teacher: stalled}); err != nil {
		t.Fatal(err)
	}
	m.Start()

	rng := rand.New(rand.NewSource(9))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := e.Predict("toy", randomBatch(rng, 4)); err != nil {
				t.Errorf("predict %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done: // the predict path never blocked on the stalled scorer
	case <-time.After(5 * time.Second):
		t.Fatal("predict path blocked behind the stalled shadow scorer")
	}
	snap := m.Snapshot()
	if snap.Sampled != 50 {
		t.Fatalf("sampled %d of 50 batches at rate 1", snap.Sampled)
	}
	if snap.Dropped < 40 {
		t.Fatalf("only %d of 50 batches dropped with queue depth 2", snap.Dropped)
	}
	close(gate)
	m.Close() // drains what was queued
	snap = m.Snapshot()
	if snap.Stale != 0 {
		t.Fatalf("%d batches counted stale with no reload", snap.Stale)
	}
	if snap.Scored+snap.Dropped != snap.Sampled {
		t.Fatalf("accounting broken: sampled %d != scored %d + dropped %d",
			snap.Sampled, snap.Scored, snap.Dropped)
	}
}

// TestScoringDiscardsStaleGenerations pins that the loop judges a student
// only by batches it served itself: batches another generation answered —
// queued across a refit's or a rollback's hot reload — are counted stale
// and never reach the fidelity window.
func TestScoringDiscardsStaleGenerations(t *testing.T) {
	corpus := gridTable(t, 4, func(x []float64) int { return 0 })
	e, path := newServed(t, "toy", corpus, 1)
	m := NewMonitor(e, Options{Rate: 1, Window: 64})
	w := &worker{
		mon: m,
		cfg: ModelConfig{Model: "toy", Teacher: funcTeacher{f: func([]float64) int { return 0 }}},
		est: NewEstimator(64),
	}
	rows := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	check := func(what string, scored, stale int64, windowRows uint64) {
		t.Helper()
		if w.scored.Load() != scored || w.stale.Load() != stale || w.est.Rows() != windowRows {
			t.Fatalf("%s: scored %d, stale %d, window rows %d; want %d, %d, %d",
				what, w.scored.Load(), w.stale.Load(), w.est.Rows(), scored, stale, windowRows)
		}
	}

	// Generation 0 serves: a batch from a rolled-back generation 1 is stale.
	w.score(&sample{rows: rows, actions: []int{1, 1}, generation: 1})
	check("gen 1 batch while gen 0 serves", 0, 1, 0)
	w.score(&sample{rows: rows, actions: []int{0, 0}, generation: 0})
	check("gen 0 batch while gen 0 serves", 1, 1, 2)

	// A refit deploys generation 1: the parent's queued batches are stale.
	err := artifact.SaveModel(path, fitTable(t, corpus), map[string]string{"name": "toy", "generation": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(""); err != nil {
		t.Fatal(err)
	}
	w.generation, w.probation = 1, true
	w.score(&sample{rows: rows, actions: []int{1, 1}, generation: 0})
	check("gen 0 batch on gen 1 probation", 1, 2, 2)
	if w.disagreements.Load() != 0 {
		t.Fatalf("stale batch counted %d disagreements", w.disagreements.Load())
	}
	w.score(&sample{rows: rows, actions: []int{0, 0}, generation: 1})
	check("gen 1 batch on gen 1 probation", 2, 2, 4)
}

// --- the full loop -------------------------------------------------------

// TestShadowRefitRollbackEndToEnd drives the whole continuous-distillation
// story over the framed socket with the SDK client:
//
//  1. agreement — teacher and student match, no refit fires;
//  2. drift — the teacher's policy flips, windowed fidelity crosses the
//     threshold, the loop refits from the disagreement-augmented corpus,
//     hot-reloads generation 1 with lineage pointing at the seed artifact,
//     and accepts it after probation measures the drift repaired;
//  3. bad refit — the teacher reverts, drift fires again, but the refit is
//     sabotaged to produce a constant-action student; probation measures it
//     worse than the drifted parent and auto-rolls back to generation 1.
//
// Not a single predict call fails across both hot reloads.
func TestShadowRefitRollbackEndToEnd(t *testing.T) {
	base := func(x []float64) int {
		if x[0] > 0.7 {
			return 1
		}
		return 0
	}
	corpus := gridTable(t, 6, base)
	e, path := newServed(t, "toy", corpus, 2)

	seed, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seedSum := fmt.Sprintf("%08x", artifact.Checksum(seed.Payload))

	// The teacher the loop scores against: phase 0/2 = base policy, phase
	// 1 = fully flipped. Sabotage makes refits return a constant-1 tree.
	var phase atomic.Int32
	var sabotage atomic.Bool
	teacher := funcTeacher{f: func(x []float64) int {
		if phase.Load() == 1 {
			return 1 - base(x)
		}
		return base(x)
	}}
	refit := func(ds *dataset.Table) (any, error) {
		if sabotage.Load() {
			bad, err := dataset.FromRows([][]float64{{0, 0}, {1, 1}}, []int{1, 1}, nil)
			if err != nil {
				return nil, err
			}
			return dtree.FitTable(bad, dtree.DistillConfig{MaxLeaves: 2})
		}
		return dtree.FitTable(ds, dtree.DistillConfig{MaxLeaves: 16})
	}

	shadowDir := t.TempDir()
	corpusPath := filepath.Join(shadowDir, "corpus.metis")
	rec := &logRecorder{}
	const window = 256
	m := NewMonitor(e, Options{
		Rate:           1,
		Seed:           3,
		Window:         window,
		DriftThreshold: 0.6,
		QueueDepth:     1 << 14,
		Dir:            shadowDir,
		Logf:           rec.logf,
	})
	err = m.Enroll(ModelConfig{
		Model: "toy", Teacher: teacher, Corpus: corpus, Refit: refit,
		SaveCorpus: func(ds *dataset.Table) error {
			return artifact.SaveModel(corpusPath, ds, map[string]string{"name": "toy-corpus"})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Checksum("toy"); got != seedSum {
		t.Fatalf("enrolled checksum %s, artifact says %s", got, seedSum)
	}
	m.Start()
	defer m.Close()

	sock := filepath.Join(t.TempDir(), "metis.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go e.ServeUDS(l)
	c := client.New("unix://" + sock)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// One predict per loop turn; every call must succeed, including the ones
	// racing the two hot reloads below.
	rng := rand.New(rand.NewSource(11))
	var predicts int
	pump := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(45 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s\nsnapshot %+v\nlog:\n%s",
					what, m.Snapshot(), rec.dump())
			}
			if _, err := c.PredictBatch(ctx, "toy", randomBatch(rng, 16)); err != nil {
				t.Fatalf("predict %d failed during %s: %v", predicts, what, err)
			}
			predicts++
		}
	}

	// Phase 0: agreement. Two full windows score with no drift trigger.
	pump("agreement scoring", func() bool {
		return m.Snapshot().Scored >= 2*window
	})
	snap := m.Snapshot()
	if snap.Refits != 0 {
		t.Fatalf("refit fired while teacher and student agree:\n%s", rec.dump())
	}
	if ms := snap.Models["toy"]; ms.Fidelity < 0.9 {
		t.Fatalf("agreement fidelity = %v, want ≥ 0.9", ms.Fidelity)
	}

	// Phase 1: drift. The teacher flips; the loop must refit and, after a
	// clean probation window, accept generation 1.
	phase.Store(1)
	pump("drift → refit → accept", func() bool { return rec.contains("accepted") })
	snap = m.Snapshot()
	if snap.Refits != 1 || snap.Rollbacks != 0 {
		t.Fatalf("after drift: refits=%d rollbacks=%d\n%s", snap.Refits, snap.Rollbacks, rec.dump())
	}
	mod, ok := e.Model("toy")
	if !ok {
		t.Fatal("model vanished across reload")
	}
	if mod.Generation != 1 {
		t.Fatalf("serving generation %d after accepted refit, want 1", mod.Generation)
	}
	gen1, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen1.Meta["generation"] != "1" || gen1.Meta["parent"] != seedSum {
		t.Fatalf("lineage meta = generation %q parent %q, want 1/%s",
			gen1.Meta["generation"], gen1.Meta["parent"], seedSum)
	}
	gen1Sum := fmt.Sprintf("%08x", artifact.Checksum(gen1.Payload))
	for _, gen := range []string{"toy.gen0.metis", "toy.gen1.metis"} {
		if _, err := os.Stat(filepath.Join(shadowDir, gen)); err != nil {
			t.Fatalf("lineage archive %s missing: %v", gen, err)
		}
	}
	if _, err := os.Stat(corpusPath); err != nil {
		t.Fatalf("corpus not persisted after accepted refit: %v", err)
	}

	// Phase 2: the teacher reverts and the refit is sabotaged. Probation
	// must measure the constant-action student worse than the drifted
	// parent and roll back to generation 1.
	phase.Store(2)
	sabotage.Store(true)
	pump("drift → bad refit → rollback", func() bool { return rec.contains("rolled back") })
	snap = m.Snapshot()
	if snap.Refits != 2 || snap.Rollbacks != 1 {
		t.Fatalf("after sabotage: refits=%d rollbacks=%d\n%s", snap.Refits, snap.Rollbacks, rec.dump())
	}
	mod, ok = e.Model("toy")
	if !ok {
		t.Fatal("model vanished across rollback")
	}
	if mod.Generation != 1 {
		t.Fatalf("serving generation %d after rollback, want 1", mod.Generation)
	}
	restored, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%08x", artifact.Checksum(restored.Payload)); sum != gen1Sum {
		t.Fatalf("restored artifact checksum %s, want generation 1's %s", sum, gen1Sum)
	}
	if predicts == 0 {
		t.Fatal("no predict traffic flowed")
	}
	// Across the reloads some queued batches may have been answered by a
	// generation no longer serving; once drained, each sampled batch is
	// scored, stale or dropped.
	m.Close()
	snap = m.Snapshot()
	if snap.Scored+snap.Stale+snap.Dropped != snap.Sampled {
		t.Fatalf("accounting broken: sampled %d != scored %d + stale %d + dropped %d",
			snap.Sampled, snap.Scored, snap.Stale, snap.Dropped)
	}
	t.Logf("%d predicts, 0 failures, across 2 hot reloads (1 refit accepted, 1 rolled back)", predicts)
}
