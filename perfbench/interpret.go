package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/abr"
	"repro/internal/experiments"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/rl"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenarios"
)

// The interpret workload's knobs: the Fig. 7 distillation and the Table 3
// critical-connection search at test scale.
const (
	maxRounds       = 32
	roundLimitS     = 10 // slo_share counts rounds that finish within it
	maskTopK        = 5
	demandsPerSet   = 10
	maskConnections = 24
	trafficDraws    = 160
)

// interpretInputs is one set-up interpret workload: the cached teachers and
// the inputs each round interprets.
type interpretInputs struct {
	env     *abr.Env
	teacher rl.ClonablePolicy
	systems []*scenarios.RouteNetSystem
	seeds   []int64
}

func setUpInterpret(o options, p prepared) (*interpretInputs, error) {
	fix := experiments.NewFixture(experiments.TestScale)
	fix.CacheDir, fix.Workers = p.fixture, benchWorkers
	agent := fix.Pensieve()
	g, model := fix.RouteNet()
	if fix.CacheHits != 2 || fix.TeachersTrained != 0 {
		return nil, fmt.Errorf("teachers not served from the prepared cache (%d hits, %d trained)", fix.CacheHits, fix.TeachersTrained)
	}
	in := &interpretInputs{env: fix.EnvHSDPA(), teacher: agent}
	// The rounds interpret the seeded traffic samples, of trafficDraws, that
	// route over exactly maskConnections (path, link) connections, in turn;
	// each round distills and searches with its own seed, so a run's median
	// covers several inputs. A search's cost grows with its connection
	// count, which otherwise ranges over 18–30 and would make each run's
	// median depend on which sizes its seed happened to draw. The draw count
	// is fixed, so set-up costs the same for every seed; about one draw in
	// ten qualifies.
	opt := &routenet.Optimizer{Model: model, Graph: g}
	for k := int64(1); k <= trafficDraws; k++ {
		sys := &scenarios.RouteNetSystem{Opt: opt, Routing: opt.Route(routing.RandomDemands(g, demandsPerSet, 3, 9, o.seed*1_000_000+k))}
		if sys.NumConnections() == maskConnections {
			in.systems = append(in.systems, sys)
		}
	}
	if len(in.systems) == 0 {
		return nil, fmt.Errorf("no traffic sample with %d connections in %d draws", maskConnections, trafficDraws)
	}
	for i := 0; i < maxRounds; i++ {
		in.seeds = append(in.seeds, o.seed*1000+int64(i))
	}
	return in, nil
}

// opRecorder collects the spans of one traced operation: calls into the
// teacher, the environment or the masked system, all children of the
// operation's span.
type opRecorder struct {
	tr      *tracer
	parent  int64
	calls   atomic.Int64
	queries atomic.Int64
}

func (c *opRecorder) span(name string, start int64) {
	c.calls.Add(1)
	c.tr.add(name, c.parent, c.parent, start, c.tr.now())
}

// tracedPolicy times every teacher query. It forwards ClonePolicy, so
// DAgger's rollouts fan out across workers exactly as they do untraced.
type tracedPolicy struct {
	inner rl.ClonablePolicy
	rec   *opRecorder
}

func (p *tracedPolicy) ActionProbs(s []float64) []float64 {
	t0 := p.rec.tr.now()
	out := p.inner.ActionProbs(s)
	p.rec.queries.Add(1)
	p.rec.span("distill.teacher", t0)
	return out
}

func (p *tracedPolicy) ClonePolicy() rl.Policy {
	clone, ok := p.inner.ClonePolicy().(rl.ClonablePolicy)
	if !ok {
		panic("perfbench: teacher clone is not clonable")
	}
	return &tracedPolicy{inner: clone, rec: p.rec}
}

// envInner is what the distillation needs of its environment: cloning for
// parallel rollouts and snapshots for advantage resampling.
type envInner interface {
	rl.ClonableEnv
	rl.Snapshotter
}

// tracedEnv times every environment call, forwarding CloneEnv and the
// snapshot methods.
type tracedEnv struct {
	inner envInner
	rec   *opRecorder
}

func (e *tracedEnv) Reset(seed int64) []float64 {
	t0 := e.rec.tr.now()
	s := e.inner.Reset(seed)
	e.rec.span("distill.env", t0)
	return s
}

func (e *tracedEnv) Step(a int) ([]float64, float64, bool) {
	t0 := e.rec.tr.now()
	s, r, done := e.inner.Step(a)
	e.rec.span("distill.env", t0)
	return s, r, done
}

func (e *tracedEnv) Snapshot() any {
	t0 := e.rec.tr.now()
	s := e.inner.Snapshot()
	e.rec.span("distill.env", t0)
	return s
}

func (e *tracedEnv) Restore(s any) {
	t0 := e.rec.tr.now()
	e.inner.Restore(s)
	e.rec.span("distill.env", t0)
}

func (e *tracedEnv) StateDim() int   { return e.inner.StateDim() }
func (e *tracedEnv) NumActions() int { return e.inner.NumActions() }

func (e *tracedEnv) CloneEnv() rl.Env {
	clone, ok := e.inner.CloneEnv().(envInner)
	if !ok {
		panic("perfbench: environment clone lacks snapshots")
	}
	return &tracedEnv{inner: clone, rec: e.rec}
}

// tracedSystem times every masked-system evaluation, forwarding
// CloneSystem so the SPSA evaluations run in parallel as they do untraced.
type tracedSystem struct {
	inner mask.ClonableSystem
	rec   *opRecorder
}

func (s *tracedSystem) NumConnections() int { return s.inner.NumConnections() }
func (s *tracedSystem) Discrete() bool      { return s.inner.Discrete() }

func (s *tracedSystem) Output(m []float64) []float64 {
	t0 := s.rec.tr.now()
	out := s.inner.Output(m)
	s.rec.span("mask.system", t0)
	return out
}

func (s *tracedSystem) CloneSystem() mask.System {
	clone, ok := s.inner.CloneSystem().(mask.ClonableSystem)
	if !ok {
		panic("perfbench: system clone is not clonable")
	}
	return &tracedSystem{inner: clone, rec: s.rec}
}

// roundResult is one interpretation round: a DAgger distillation of the
// Pensieve teacher and a critical-connection search on one traffic sample.
type roundResult struct {
	traced, failed      bool
	cpu                 time.Duration
	peakMB, steal       float64
	distill, search     time.Duration
	fidelity            float64
	teacherQ, systemEvl int64
	distillID, searchID int64
}

// distillConfig is the Fig. 7 distillation at test scale.
func distillConfig(seed int64) dtree.DistillConfig {
	s := experiments.TestScale
	cfg := scenarios.PensieveDistillConfig(s.TreeLeaves, s.DistillIters, s.DistillEps, s.VideoChunks+2, benchWorkers)
	cfg.Seed = seed
	return cfg
}

// searchOptions are the Table 3 search options.
func searchOptions(seed int64) mask.Options {
	return mask.Options{Lambda1: 0.25, Lambda2: 1, Iterations: experiments.TestScale.MaskIterations, Seed: seed, Workers: benchWorkers}
}

// round runs round i, traced when tr is non-nil, and checks its outputs.
func (in *interpretInputs) round(i int, tr *tracer) (roundResult, error) {
	res := roundResult{traced: tr != nil}
	var env rl.Env = in.env
	var teacher rl.Policy = in.teacher
	system := in.systems[i%len(in.systems)]
	var sys mask.System = system
	var drec, mrec *opRecorder
	var dStart, mStart int64
	if tr != nil {
		drec = &opRecorder{tr: tr, parent: tr.newID()}
		mrec = &opRecorder{tr: tr, parent: tr.newID()}
		env = &tracedEnv{inner: in.env, rec: drec}
		teacher = &tracedPolicy{inner: in.teacher, rec: drec}
		sys = &tracedSystem{inner: system, rec: mrec}
		res.distillID, res.searchID = drec.parent, mrec.parent
		dStart = tr.now()
	}
	t0 := time.Now()
	d, err := dtree.DistillPolicy(env, teacher, distillConfig(in.seeds[i]))
	res.distill = time.Since(t0)
	if tr != nil {
		tr.record(span{id: drec.parent, req: int64(i), name: "distill", start: dStart, end: tr.now()})
		mStart = tr.now()
	}
	if err != nil {
		return res, fmt.Errorf("distill: %w", err)
	}
	t1 := time.Now()
	m := mask.Search(sys, searchOptions(in.seeds[i]))
	res.search = time.Since(t1)
	if tr != nil {
		tr.record(span{id: mrec.parent, req: int64(i), name: "mask", start: mStart, end: tr.now()})
		res.teacherQ = drec.queries.Load()
		res.systemEvl = mrec.calls.Load()
	}

	res.fidelity = d.Fidelity
	if d.Tree == nil || d.Tree.NumLeaves() == 0 {
		return res, errors.New("distill: empty tree")
	}
	if math.IsNaN(d.Fidelity) || d.Fidelity < 0 || d.Fidelity > 1 {
		return res, fmt.Errorf("distill: fidelity %v outside [0,1]", d.Fidelity)
	}
	top := m.TopConnections(maskTopK)
	if len(top) == 0 {
		return res, errors.New("mask: empty ranking")
	}
	for _, w := range m.W {
		if math.IsNaN(w) || w < 0 || w > 1 {
			return res, fmt.Errorf("mask: weight %v outside [0,1]", w)
		}
	}
	return res, nil
}

func runInterpret(o options, p prepared, r *report) error {
	in, setup, err := setUp(func() (*interpretInputs, error) { return setUpInterpret(o, p) },
		func(*interpretInputs) {})
	if err != nil {
		return err
	}
	r.Config = map[string]any{
		"workers": benchWorkers, "distill": "Fig. 7: Pensieve teacher, DAgger with advantage resampling, test scale",
		"distill_leaves": experiments.TestScale.TreeLeaves, "distill_iters": experiments.TestScale.DistillIters,
		"distill_episodes": experiments.TestScale.DistillEps,
		"search":           "Table 3: RouteNet* on NSFNet, lambda1 0.25, lambda2 1", "search_iters": experiments.TestScale.MaskIterations,
		"demands_per_sample": demandsPerSet, "traffic_draws": trafficDraws, "connections": maskConnections,
		"traffic_samples": len(in.systems), "round_limit_s": roundLimitS, "setup_reps": setupReps,
		"round_seed": "seed*1000 + round",
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rss := traceRSS(0)
	var rounds []roundResult
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	// At least two rounds, so a traced run has a traced and an untraced one.
	for i := 0; i < maxRounds && (i < 2 || time.Now().Before(deadline)); i++ {
		var rtr *tracer
		if o.trace && i%2 == 1 {
			rtr = tr
		}
		// Every round starts from a collected heap returned to the system, so
		// its memory peak does not depend on what the round before it left.
		debug.FreeOSMemory()
		h0, err := readHostTicks()
		if err != nil {
			return err
		}
		t0, c0 := time.Now(), selfCPU()
		res, err := in.round(i, rtr)
		res.cpu = selfCPU() - c0
		res.peakMB = rss.peak(t0, time.Now())
		if h1, herr := readHostTicks(); herr == nil {
			res.steal = h1.stealShare(h0)
		}
		r.attempted++
		if err != nil {
			r.failed++
			r.fail(err)
			res.failed = true
		}
		rounds = append(rounds, res)
	}

	rss.close()
	r.Phases = append(r.Phases,
		phase{Name: "interpretation round", Attempted: r.attempted, Succeeded: r.attempted - r.failed, Failed: r.failed})

	var plain []roundResult
	var steal []float64
	for _, rr := range rounds {
		if !rr.traced {
			plain = append(plain, rr)
			steal = append(steal, rr.steal)
		}
	}
	var roundS, quietS, okS, cpuS, distillS, searchS, peaks, fid []float64
	for _, rr := range plain {
		s := (rr.distill + rr.search).Seconds()
		roundS = append(roundS, s)
		cpuS = append(cpuS, rr.cpu.Seconds())
		peaks = append(peaks, rr.peakMB)
		if rr.failed {
			continue
		}
		okS = append(okS, s)
		distillS = append(distillS, rr.distill.Seconds())
		searchS = append(searchS, rr.search.Seconds())
		fid = append(fid, rr.fidelity)
	}
	// Wall-clock metrics come from the half of the rounds in which the
	// hypervisor stole the least CPU time.
	used := quietest(steal)
	for _, i := range used {
		quietS = append(quietS, roundS[i])
	}
	r.Config["round_steal_share"] = steal
	r.Config["rounds_used"] = used
	rt := summarize("interpretation round (quiet rounds)", "s", quietS)
	r.Timings = append(r.Timings, rt,
		summarize("interpretation round CPU", "s", cpuS),
		summarize("distillation", "s", distillS),
		summarize("mask search", "s", searchS),
		summarize("round peak RSS", "MB", peaks),
		summarize("set-up", "s", setup))
	r.metrics["setup_s"] = median(setup)
	r.metrics["peak_rss_mb"] = median(peaks)
	// Rounds per second of interpretation: the set-up between rounds (a
	// forced collection) is not the workload's work.
	roundTotal := 0.0
	for _, v := range quietS {
		roundTotal += v
	}
	r.metrics["throughput_rps"] = float64(len(quietS)) / roundTotal
	r.metrics["latency_p50_us"] = rt.P50 * 1e6
	r.metrics["slo_share"] = sloShare(okS, len(plain), roundLimitS)
	r.Config["fidelity_median"] = median(fid)
	if !o.trace {
		return nil
	}

	spans := tr.snapshot()
	st := newSpanTimes(spans)
	r.spans = spans
	r.layers = layerTimes(spans, st)
	// The operation times come from the untraced rounds; the traced rounds
	// give the split of each operation into its child layers and self time.
	var tq, teach, env, fit, evals, sysS, opt, tRound []float64
	for _, rr := range rounds {
		if !rr.traced {
			continue
		}
		tRound = append(tRound, (rr.distill + rr.search).Seconds())
		tq = append(tq, float64(rr.teacherQ))
		teach = append(teach, st.childBusy[rr.distillID]["distill.teacher"].Seconds())
		env = append(env, st.childBusy[rr.distillID]["distill.env"].Seconds())
		fit = append(fit, st.self[rr.distillID].Seconds())
		evals = append(evals, float64(rr.systemEvl))
		sysS = append(sysS, st.childBusy[rr.searchID]["mask.system"].Seconds())
		opt = append(opt, st.self[rr.searchID].Seconds())
	}
	r.Timings = append(r.Timings, summarize("traced interpretation round", "s", tRound))
	r.metrics["distill.op_s"] = median(distillS)
	r.metrics["distill.fidelity"] = median(fid)
	r.metrics["distill.teacher_queries"] = median(tq)
	r.metrics["distill.teacher_s"] = median(teach)
	r.metrics["distill.env_s"] = median(env)
	r.metrics["distill.fit_s"] = median(fit)
	r.metrics["mask.op_s"] = median(searchS)
	r.metrics["mask.system_evals"] = median(evals)
	r.metrics["mask.system_s"] = median(sysS)
	r.metrics["mask.opt_s"] = median(opt)
	r.metrics["trace.overhead_us_p50"] = (median(tRound) - median(roundS)) * 1e6
	r.metrics["trace.overhead_share"] = (median(tRound) - median(roundS)) / median(roundS)
	return nil
}
