package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/serve"
)

// window is the length of the slices a serve run is measured in. Rates are
// medians over windows; a traced run alternates traced and untraced windows
// so that their difference is the tracing overhead.
const window = time.Second

// sloLimitUS is the latency limit slo_share counts against, in microseconds.
const sloLimitUS = 10000

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// rig is one set-up serve workload: its inputs, the daemon, and a client.
type rig struct {
	pool [][][]*request
	eng  *serve.Engine
	d    *daemon
	c    *client.Client
}

func (g *rig) teardown() { g.d.stop() }

// sockPath returns a socket path under the build directory, relative to the
// working directory when that is shorter: unix socket paths are limited to
// about a hundred bytes.
func sockPath(o options, name string) string {
	abs, err := filepath.Abs(filepath.Join(o.build, "run", name))
	if err != nil {
		return filepath.Join(o.build, "run", name)
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, abs); err == nil && len(rel) < len(abs) {
			return rel
		}
	}
	return abs
}

// setUpRig draws the workload's requests, starts the daemon with args and
// connects a client, warming every model once.
func setUpRig(o options, p prepared, models []string, sizes []int, perSize int, sock string, args []string, opts ...client.Option) (*rig, error) {
	pool, eng, err := requestPool(p, models, sizes, perSize, o.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(o.build, "bin", "metis-serve"), sock,
		filepath.Join(o.build, "run", o.workload+"-daemon.log"), args)
	if err != nil {
		return nil, err
	}
	c := client.New("unix://"+sock, opts...)
	for mi := range models {
		req := pool[mi][0][0]
		pred, err := c.PredictBatch(context.Background(), req.model, req.rows)
		if err == nil {
			err = req.check(pred)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &rig{pool: pool, eng: eng, d: d, c: c}, nil
}

// counters is a reading of the counters a serve run samples at window
// boundaries, outside the request path.
type counters struct {
	stats     *daemonStats
	daemonCPU time.Duration
	selfCPU   time.Duration
	host      hostTicks
}

func (g *rig) read() (counters, error) {
	s, err := g.d.stats()
	if err != nil {
		return counters{}, err
	}
	cpu, err := procCPU(g.d.pid())
	if err != nil {
		return counters{}, err
	}
	host, err := readHostTicks()
	if err != nil {
		return counters{}, err
	}
	return counters{stats: s, daemonCPU: cpu, selfCPU: selfCPU(), host: host}, nil
}

// sampleWindows reads the counters at start and at every window boundary
// until end, so a window's deltas can be charged to it.
func (g *rig) sampleWindows(start time.Time, n int) ([]counters, error) {
	out := make([]counters, 0, n+1)
	for w := 0; w <= n; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		c, err := g.read()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// windowed is a serve run's requests sorted into its windows, with the share
// of CPU time the hypervisor stole in each.
type windowed struct {
	lat   [][]float64 // latencies of the requests that succeeded, µs
	fails []int
	steal []float64
}

// newWindowed prepares the windows between consecutive counter readings.
func newWindowed(cs []counters) *windowed {
	n := len(cs) - 1
	ws := &windowed{lat: make([][]float64, n), fails: make([]int, n), steal: make([]float64, n)}
	for w := range ws.steal {
		ws.steal[w] = cs[w+1].host.stealShare(cs[w].host)
	}
	return ws
}

func (ws *windowed) add(w int, us float64, failed bool) {
	if failed {
		ws.fails[w]++
		return
	}
	ws.lat[w] = append(ws.lat[w], us)
}

// windows returns the traced or the untraced windows.
func (ws *windowed) windows(o options, tracedOnes bool) []int {
	var out []int
	for w := range ws.lat {
		if traced(o, w) == tracedOnes {
			out = append(out, w)
		}
	}
	return out
}

// quiet returns the untraced windows the wall-clock metrics are taken over:
// the half in which the hypervisor stole the least CPU time.
func (ws *windowed) quiet(o options) []int {
	plain := ws.windows(o, false)
	steal := make([]float64, len(plain))
	for i, w := range plain {
		steal[i] = ws.steal[w]
	}
	var out []int
	for _, i := range quietest(steal) {
		out = append(out, plain[i])
	}
	return out
}

// over gathers the latencies and failures of the given windows.
func (ws *windowed) over(wins []int) (lat []float64, fails int) {
	for _, w := range wins {
		lat = append(lat, ws.lat[w]...)
		fails += ws.fails[w]
	}
	return lat, fails
}

// record keeps every window's request count and steal share, and which
// windows the metrics used.
func (ws *windowed) record(r *report, used []int) {
	counts := make([]int, len(ws.lat))
	for w, l := range ws.lat {
		counts[w] = len(l) + ws.fails[w]
	}
	r.Config["window_requests"] = counts
	r.Config["window_steal_share"] = ws.steal
	r.Config["windows_used"] = used
}

// windowPeakMB is the median, over the given windows, of each window's peak
// resident set.
func windowPeakMB(rt *rssTrace, start time.Time, wins []int) float64 {
	var peaks []float64
	for _, w := range wins {
		peaks = append(peaks, rt.peak(start.Add(time.Duration(w)*window), start.Add(time.Duration(w+1)*window)))
	}
	return median(peaks)
}

// traced reports whether window w of a run records spans.
func traced(o options, w int) bool { return o.trace && w%2 == 1 }

// windowDelta sums counter deltas over some of a run's windows.
type windowDelta struct {
	requests, wakes, engineN int64
	engineUS                 float64
	daemonCPU, selfCPU       time.Duration
}

func deltas(cs []counters, keep func(w int) bool) windowDelta {
	var d windowDelta
	for w := 0; w+1 < len(cs); w++ {
		if !keep(w) {
			continue
		}
		a, b := cs[w], cs[w+1]
		d.requests += b.stats.Requests - a.stats.Requests
		d.wakes += b.stats.SHM.Wakes - a.stats.SHM.Wakes
		n := b.stats.Latency.Count - a.stats.Latency.Count
		d.engineN += n
		d.engineUS += engineMeanUS(a.stats, b.stats) * float64(n)
		d.daemonCPU += b.daemonCPU - a.daemonCPU
		d.selfCPU += b.selfCPU - a.selfCPU
	}
	return d
}

// closedSample is one completed closed-loop request.
type closedSample struct {
	win    int
	us     float64
	failed bool
}

func runServeClosed(o options, p prepared, r *report) error {
	const (
		batch   = 16
		perSize = 256
	)
	models := []string{"abr-test", "auto-lrla-test"}
	// One client per CPU, each on its own connection (ring), as many as a
	// two-core host has. A single client left the loop's latency varying
	// from run to run: 30–48 µs over five runs on such a host, against
	// 18.5–19.5 µs with two clients.
	clients := 2
	sock := sockPath(o, "closed.sock")
	shmDir, err := filepath.Abs(filepath.Join(o.build, "run", "shm"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(shmDir, 0o755); err != nil {
		return err
	}
	args := []string{"-dir", p.models, "-addr", "127.0.0.1:0", "-uds", sock, "-shm", "-shm-dir", shmDir}
	g, setup, err := setUp(func() (*rig, error) {
		return setUpRig(o, p, models, []int{batch}, perSize, sock, args,
			client.WithSharedMemory(), client.WithConns(clients))
	}, (*rig).teardown)
	if err != nil {
		return err
	}
	defer g.teardown()
	r.Config = map[string]any{
		"loop": "closed", "clients": clients, "conns": clients, "batch_rows": batch,
		"models": models, "requests_per_model": perSize, "daemon_args": args,
		"window_s": window.Seconds(), "slo_limit_us": sloLimitUS, "setup_reps": setupReps,
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	nWin := o.seconds
	rt := traceRSS(g.d.pid())
	start := time.Now()
	end := start.Add(time.Duration(nWin) * window)
	results := make([][]closedSample, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*7919 + int64(ci)))
			out := make([]closedSample, 0, 1<<18)
			ctx := context.Background()
			for k := int64(0); ; k++ {
				req := g.pool[rng.Intn(len(models))][0][rng.Intn(perSize)]
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				win := int(t0.Sub(start) / window)
				var ts int64
				if traced(o, win) {
					ts = tr.now()
				}
				pred, err := g.c.PredictBatch(ctx, req.model, req.rows)
				t1 := time.Now()
				if traced(o, win) {
					tr.add("client.call", 0, int64(ci)<<40|k, ts, tr.now())
				}
				if err == nil {
					err = req.check(pred)
				}
				if err != nil {
					r.fail(err)
				}
				out = append(out, closedSample{win: win, us: float64(t1.Sub(t0)) / 1e3, failed: err != nil})
			}
			results[ci] = out
		}(ci)
	}
	cs, serr := g.sampleWindows(start, nWin)
	wg.Wait()
	rt.close()
	if serr != nil {
		return serr
	}

	checkErrors(r, cs[0].stats, cs[len(cs)-1].stats)
	ws := newWindowed(cs)
	for _, rs := range results {
		for _, s := range rs {
			r.attempted++
			if s.failed {
				r.failed++
			}
			ws.add(min(s.win, nWin-1), s.us, s.failed)
		}
	}
	r.Phases = append(r.Phases, phase{Name: "closed-loop predict", Attempted: r.attempted, Succeeded: r.attempted - r.failed, Failed: r.failed})
	quiet := ws.quiet(o)
	rate := func(wins []int) float64 {
		var xs []float64
		for _, w := range wins {
			xs = append(xs, float64(len(ws.lat[w]))/window.Seconds())
		}
		return median(xs)
	}
	okQuiet, failQuiet := ws.over(quiet)
	lat := summarize("request latency (quiet windows)", "us", okQuiet)
	r.Timings = append(r.Timings, lat, summarize("set-up", "s", setup))
	ws.record(r, quiet)
	r.metrics["setup_s"] = median(setup)
	r.metrics["peak_rss_mb"] = windowPeakMB(rt, start, ws.windows(o, false))
	r.metrics["throughput_rps"] = rate(quiet)
	r.metrics["latency_p50_us"] = lat.P50
	r.metrics["slo_share"] = sloShare(okQuiet, len(okQuiet)+failQuiet, sloLimitUS)
	if !o.trace {
		return nil
	}

	spans := tr.snapshot()
	var calls []float64
	for _, s := range spans {
		calls = append(calls, float64(s.end-s.start)/1e3)
	}
	call := summarize("client.call span", "us", calls)
	plain := func(w int) bool { return !traced(o, w) }
	all := deltas(cs, func(int) bool { return true })
	un := deltas(cs, plain)
	engine := all.engineUS / float64(max(all.engineN, 1))
	okTraced, _ := ws.over(ws.windows(o, true))
	okPlain, _ := ws.over(ws.windows(o, false))
	r.Timings = append(r.Timings, call, summarize("traced request latency", "us", okTraced))
	r.metrics["client.call_us_p50"] = call.P50
	r.metrics["serve.engine_us_mean"] = engine
	r.metrics["transport.us_p50"] = call.P50 - engine
	r.metrics["shmring.wakes_per_kreq"] = 1000 * float64(all.wakes) / float64(max(all.requests, 1))
	r.metrics["daemon.cpu_us_per_req"] = perOp(0, un.daemonCPU, un.requests)
	r.metrics["client.cpu_us_per_req"] = perOp(0, un.selfCPU, un.requests)
	r.metrics["trace.overhead_us_p50"] = median(okTraced) - median(okPlain)
	r.metrics["trace.overhead_share"] = 1 - rate(ws.windows(o, true))/rate(ws.windows(o, false))
	if err := inProcessLayers(g, tr, r); err != nil {
		return err
	}
	r.spans = tr.snapshot()
	r.layers = layerTimes(r.spans, newSpanTimes(r.spans))
	return nil
}

// inProcessLayers times, with no transport, the layers the daemon runs per
// request on the workload's own models and rows: the quantized tree walk,
// the engine's predict, and the batch codec (request and response, both
// directions). Each is the median of several passes over every request.
func inProcessLayers(g *rig, tr *tracer, r *report) error {
	const passes = 7
	var reqs []*request
	for _, bySize := range g.pool {
		for _, rs := range bySize {
			reqs = append(reqs, rs...)
		}
	}
	rows := 0
	for _, q := range reqs {
		rows += len(q.rows)
	}
	nsPerRow := func(name string, pass func() error) (float64, error) {
		var xs []float64
		for i := 0; i < passes; i++ {
			t0 := tr.now()
			if err := pass(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			t1 := tr.now()
			tr.add(name, 0, int64(i), t0, t1)
			xs = append(xs, float64(t1-t0)/float64(rows))
		}
		return median(xs), nil
	}

	var actions []int
	walk, err := nsPerRow("dtree.walk", func() error {
		for _, q := range reqs {
			m, ok := g.eng.Model(q.model)
			if !ok {
				return fmt.Errorf("no model %s", q.model)
			}
			if qt := m.Quantized; qt != nil {
				if cap(actions) < len(q.rows) {
					actions = make([]int, len(q.rows))
				}
				qt.PredictBatchInto(q.rows, actions[:len(q.rows)], 1)
				continue
			}
			for _, row := range q.rows {
				m.Compiled.PredictReg(row)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var pred serve.Prediction
	predict, err := nsPerRow("serve.predict", func() error {
		for _, q := range reqs {
			if err := g.eng.PredictInto(q.model, q.rows, &pred); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	codec, err := nsPerRow("serve.codec", func() error {
		for _, q := range reqs {
			buf.Reset()
			if err := serve.EncodeBatchRequest(&buf, q.model, q.rows); err != nil {
				return err
			}
			if _, _, err := serve.DecodeBatchRequest(&buf, len(q.rows)); err != nil {
				return err
			}
			buf.Reset()
			p := &serve.Prediction{Actions: q.wantActions, Values: q.wantValues}
			if err := serve.EncodeBatchResponse(&buf, p); err != nil {
				return err
			}
			if _, err := serve.DecodeBatchResponse(&buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["dtree.walk_ns_per_row"] = walk
	r.metrics["serve.predict_ns_per_row"] = predict
	r.metrics["serve.codec_ns_per_row"] = codec
	return nil
}

// openSample is one open-loop request's outcome.
type openSample struct {
	due, sent, done time.Duration
	failed          bool
}

func runServeOpen(o options, p prepared, r *report) error {
	// The rate is metis-loadgen's default, the shadow rate the one the
	// README's operating example runs with, and the batch sizes are drawn
	// with equal weight, as metis-loadgen draws models by default. The reload
	// interval is a free choice: fifteen reloads in a 30 s run.
	const (
		rate        = 1000 // offered requests per second
		perSize     = 32
		shadowRate  = "0.01"
		reloadEvery = 2 * time.Second
	)
	models := []string{"abr-test", "auto-lrla-test", "auto-srla-test"}
	sizes := []int{1, 16, 256}
	sizeWeights := []float64{1. / 3, 1. / 3, 1. / 3}
	sock := sockPath(o, "open.sock")
	args := []string{"-dir", p.models, "-addr", "127.0.0.1:0", "-uds", sock,
		"-tenants", "abr-test:3,auto-srla-test:1", "-shadow-rate", shadowRate, "-shadow-dir", p.shadow}
	g, setup, err := setUp(func() (*rig, error) {
		return setUpRig(o, p, models, sizes, perSize, sock, args)
	}, (*rig).teardown)
	if err != nil {
		return err
	}
	defer g.teardown()
	r.Config = map[string]any{
		"loop": "open", "rate_rps": rate, "arrivals": "Poisson, count fixed to rate × seconds",
		"batch_rows": sizes, "batch_weights": sizeWeights, "models": models,
		"tenants": "socket requests are keyed by model: abr-test weight 3, auto-srla-test weight 1, auto-lrla-test default 1",
		"shadow":  "score-only (teachers cached, no corpora)", "reload_every_s": reloadEvery.Seconds(),
		"daemon_args": args, "window_s": window.Seconds(), "slo_limit_us": sloLimitUS, "setup_reps": setupReps,
	}

	// The schedule: a Poisson process conditioned on its count, so every
	// seed offers exactly rate × seconds requests.
	nWin := o.seconds
	length := time.Duration(nWin) * window
	rng := rand.New(rand.NewSource(o.seed))
	n := rate * nWin
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(length))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	reqs := make([]*request, n)
	sizeOf := make([]int, n)
	for i := range reqs {
		si, u := 0, rng.Float64()
		for u > sizeWeights[si] && si < len(sizes)-1 {
			u -= sizeWeights[si]
			si++
		}
		reqs[i] = g.pool[rng.Intn(len(models))][si][rng.Intn(perSize)]
		sizeOf[i] = si
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	samples := make([]openSample, n)
	rt := traceRSS(g.d.pid())
	start := time.Now()
	ctx := context.Background()
	type readings struct {
		cs  []counters
		err error
	}
	readDone := make(chan readings, 1)
	go func() {
		cs, err := g.sampleWindows(start, nWin)
		readDone <- readings{cs, err}
	}()

	// Reloads run beside the traffic at a fixed interval.
	type reload struct{ start, end time.Duration }
	var reloads []reload
	var reloadErrs int64
	stopReload := make(chan struct{})
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		t := time.NewTicker(reloadEvery)
		defer t.Stop()
		for {
			select {
			case <-stopReload:
				return
			case <-t.C:
				t0 := time.Since(start)
				_, err := g.c.Reload(ctx, "")
				rl := reload{t0, time.Since(start)}
				if err != nil {
					reloadErrs++
					r.fail(fmt.Errorf("reload: %w", err))
				}
				reloads = append(reloads, rl)
			}
		}
	}()

	// The generator sleeps in nanosleep on its own thread: the runtime's
	// timers wake about half a millisecond late on average, which would
	// swamp the latency being measured.
	runtime.LockOSThread()
	// Timer slack of 1ns: the kernel's default 50µs would show as lag.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	var wg sync.WaitGroup
	for i := range reqs {
		if d := time.Until(start.Add(dues[i])); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		sent := time.Since(start)
		win := int(dues[i] / window)
		wg.Add(1)
		go func(i, win int, sent time.Duration) {
			defer wg.Done()
			req := reqs[i]
			var ts int64
			if traced(o, win) {
				ts = tr.now()
			}
			pred, err := g.c.PredictBatch(ctx, req.model, req.rows)
			done := time.Since(start)
			if traced(o, win) {
				tr.add("client.call", 0, int64(i), ts, tr.now())
			}
			if err == nil {
				err = req.check(pred)
			}
			if err != nil {
				r.fail(err)
			}
			samples[i] = openSample{due: dues[i], sent: sent, done: done, failed: err != nil}
		}(i, win, sent)
	}
	runtime.UnlockOSThread()
	wg.Wait()
	elapsed := time.Since(start)
	rt.close()
	close(stopReload)
	<-reloadDone
	// The window sampler owns the control connection until it is done.
	rd := <-readDone
	if rd.err != nil {
		return rd.err
	}
	before := rd.cs[0]
	// Let the shadow scorer drain what was sampled before reading counters.
	var after counters
	for deadline := time.Now().Add(2 * time.Second); ; {
		if after, err = g.read(); err != nil {
			return err
		}
		sh := after.stats.Shadow
		if sh.Scored+sh.Dropped >= sh.Sampled || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	checkErrors(r, before.stats, after.stats)
	ws := newWindowed(rd.cs)
	var lags []float64
	var failedInReload int64
	for _, s := range samples {
		r.attempted++
		lat, lag := openLoopTimes(s.due, s.sent, s.done)
		lags = append(lags, float64(lag)/1e3)
		ws.add(min(int(s.due/window), nWin-1), float64(lat)/1e3, s.failed)
		if !s.failed {
			continue
		}
		r.failed++
		for _, rl := range reloads {
			if s.sent < rl.end && s.done > rl.start {
				failedInReload++
				break
			}
		}
	}
	quiet := ws.quiet(o)
	ws.record(r, quiet)
	latQuiet, failQuiet := ws.over(quiet)
	r.Phases = append(r.Phases,
		phase{Name: "open-loop predict", Attempted: r.attempted, Succeeded: r.attempted - r.failed, Failed: r.failed},
		phase{Name: "reload", Attempted: int64(len(reloads)), Succeeded: int64(len(reloads)) - reloadErrs, Failed: reloadErrs})
	lat := summarize("request latency from due time (quiet windows)", "us", latQuiet)
	lagT := summarize("generator lag", "us", lags)
	r.Timings = append(r.Timings, lat, lagT, summarize("set-up", "s", setup))
	r.metrics["setup_s"] = median(setup)
	r.metrics["peak_rss_mb"] = windowPeakMB(rt, start, ws.windows(o, false))
	r.metrics["throughput_rps"] = float64(r.attempted-r.failed) / elapsed.Seconds()
	r.metrics["latency_p50_us"] = lat.P50
	r.metrics["slo_share"] = sloShare(latQuiet, len(latQuiet)+failQuiet, sloLimitUS)
	mix, err := sizeMix(g, sizes, sizeOf, samples)
	if err != nil {
		return err
	}
	r.Config["size_mix"] = mix
	if !o.trace {
		return nil
	}

	spans := tr.snapshot()
	var calls []float64
	for _, s := range spans {
		calls = append(calls, float64(s.end-s.start)/1e3)
	}
	call := summarize("client.call span", "us", calls)
	var reloadMS []float64
	for _, rl := range reloads {
		reloadMS = append(reloadMS, float64(rl.end-rl.start)/1e6)
		tr.record(span{id: tr.newID(), name: "client.reload", start: int64(rl.start), end: int64(rl.end)})
	}
	rel := summarize("client.reload span", "ms", reloadMS)
	latTraced, _ := ws.over(ws.windows(o, true))
	latPlain, _ := ws.over(ws.windows(o, false))
	r.Timings = append(r.Timings, call, rel, summarize("traced request latency from due time", "us", latTraced))
	a, b := before.stats, after.stats
	engine := engineMeanUS(a, b)
	var admitted, refused int64
	for name, t := range b.Tenants {
		t0 := a.Tenants[name]
		admitted += t.Admitted - t0.Admitted
		refused += (t.Rejected - t0.Rejected) + (t.Shed - t0.Shed)
	}
	reqDelta := b.Requests - a.Requests
	sampled := b.Shadow.Sampled - a.Shadow.Sampled
	r.metrics["client.call_us_p50"] = call.P50
	r.metrics["serve.engine_us_mean"] = engine
	r.metrics["transport.us_p50"] = call.P50 - engine
	r.metrics["daemon.cpu_us_per_req"] = perOp(before.daemonCPU, after.daemonCPU, reqDelta)
	r.metrics["client.cpu_us_per_req"] = perOp(before.selfCPU, after.selfCPU, reqDelta)
	r.metrics["gen.lag_us_p50"] = lagT.P50
	r.metrics["gen.lag_us_p99"] = percentile(lags, 9900)
	r.metrics["latency_p99_us"] = percentile(latQuiet, 9900)
	r.metrics["tenant.refused_share"] = float64(refused) / float64(max(admitted+refused, 1))
	r.metrics["reload.ms_p50"] = rel.P50
	r.metrics["reload.failed_predicts"] = float64(failedInReload)
	r.metrics["shadow.sampled_per_kreq"] = 1000 * float64(sampled) / float64(max(reqDelta, 1))
	r.metrics["shadow.scored_share"] = float64(b.Shadow.Scored-a.Shadow.Scored) / float64(max(sampled, 1))
	r.metrics["shadow.refits"] = float64(b.Shadow.Refits - a.Shadow.Refits)
	r.metrics["trace.overhead_us_p50"] = median(latTraced) - median(latPlain)
	r.metrics["trace.overhead_share"] = (median(latTraced) - median(latPlain)) / median(latPlain)
	if err := inProcessLayers(g, tr, r); err != nil {
		return err
	}
	r.spans = tr.snapshot()
	r.layers = layerTimes(r.spans, newSpanTimes(r.spans))
	return nil
}

// sizeShare is what one batch size of the open-loop schedule amounts to.
type sizeShare struct {
	Rows     int     `json:"batch_rows"`
	Requests int     `json:"requests"`
	RowShare float64 `json:"row_share"`
	// EngineShare is the size's share of the engine's predict time, from
	// in-process predicts of the pool's requests of each size weighted by
	// the schedule's request counts.
	EngineShare  float64 `json:"engine_share"`
	LatencyP50US float64 `json:"latency_p50_us"`
}

// sizeMix measures, for each batch size, its share of the rows served and of
// the engine's time, and the median latency of its requests.
func sizeMix(g *rig, sizes, sizeOf []int, samples []openSample) ([]sizeShare, error) {
	const passes = 3
	out := make([]sizeShare, len(sizes))
	lat := make([][]float64, len(sizes))
	totalRows := 0
	for i, si := range sizeOf {
		out[si].Requests++
		totalRows += sizes[si]
		if s := samples[i]; !s.failed {
			l, _ := openLoopTimes(s.due, s.sent, s.done)
			lat[si] = append(lat[si], float64(l)/1e3)
		}
	}
	engine := make([]float64, len(sizes))
	var totalEngine float64
	var pred serve.Prediction
	for si := range sizes {
		var per []float64
		for p := 0; p < passes; p++ {
			n := 0
			t0 := time.Now()
			for _, bySize := range g.pool {
				for _, q := range bySize[si] {
					if err := g.eng.PredictInto(q.model, q.rows, &pred); err != nil {
						return nil, err
					}
					n++
				}
			}
			per = append(per, float64(time.Since(t0))/float64(n))
		}
		engine[si] = median(per) * float64(out[si].Requests)
		totalEngine += engine[si]
	}
	for si, size := range sizes {
		out[si].Rows = size
		out[si].RowShare = float64(size*out[si].Requests) / float64(max(totalRows, 1))
		out[si].EngineShare = engine[si] / totalEngine
		out[si].LatencyP50US = median(lat[si])
	}
	return out, nil
}
