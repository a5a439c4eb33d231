// Command perfbench is the repository benchmark. It runs one of three
// workloads against code built from this checkout and prints, as the last
// line of its output, one JSON object with the run's verdict and metrics:
//
//	serve-closed  a closed loop of 16-row predicts over shared-memory rings
//	serve-open    an open-loop Poisson schedule of mixed predicts over the
//	              framed socket, beside tenants, hot reloads and shadowing
//	interpret     the paper's two interpretation methods, offline
//
// With -trace 0 it reports the end-to-end metrics, with -trace 1 the
// per-layer ones, taken from spans the benchmark records around calls into
// each layer. Run it through run.sh, which builds it and the daemon.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// benchWorkers is the fixed worker count of every parallel stage the
// benchmark drives itself (corpus preparation, distillation, mask search).
const benchWorkers = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// The end-to-end metrics every workload reports, measured on its own
// operations: predict requests in the serve workloads, interpretation
// rounds (one distillation and one mask search) in interpret.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"slo_share", "share"},
}

// The per-layer metrics of the traced run. A workload that bypasses a layer
// reports zero work for it.
var perLayer = []struct{ name, unit string }{
	{"client.call_us_p50", "us"},
	{"serve.engine_us_mean", "us"},
	{"transport.us_p50", "us"},
	{"shmring.wakes_per_kreq", "count"},
	{"daemon.cpu_us_per_req", "us"},
	{"client.cpu_us_per_req", "us"},
	{"dtree.walk_ns_per_row", "ns"},
	{"serve.predict_ns_per_row", "ns"},
	{"serve.codec_ns_per_row", "ns"},
	{"gen.lag_us_p50", "us"},
	{"gen.lag_us_p99", "us"},
	{"latency_p99_us", "us"},
	{"tenant.refused_share", "share"},
	{"reload.ms_p50", "ms"},
	{"reload.failed_predicts", "count"},
	{"shadow.sampled_per_kreq", "count"},
	{"shadow.scored_share", "share"},
	{"shadow.refits", "count"},
	{"distill.op_s", "s"},
	{"distill.fidelity", "share"},
	{"distill.teacher_queries", "count"},
	{"distill.teacher_s", "s"},
	{"distill.env_s", "s"},
	{"distill.fit_s", "s"},
	{"mask.op_s", "s"},
	{"mask.system_evals", "count"},
	{"mask.system_s", "s"},
	{"mask.opt_s", "s"},
	{"trace.overhead_us_p50", "us"},
	{"trace.overhead_share", "share"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	build    string
}

// phase counts one phase's operations.
type phase struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

// report is what a workload run produces: the verdict, the metrics, and the
// record printed beside them.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     map[string]any `json:"host"`
	Config   map[string]any `json:"config"`
	Phases   []phase        `json:"phases"`
	Timings  []timing       `json:"timings"`
	Errors   []string       `json:"errors,omitempty"`

	mu sync.Mutex // guards Errors
	// attempted and failed count the workload's main operations.
	attempted, failed int64
	errs              int64
	metrics           map[string]float64
	layers            []*layerTime
	spans             []span
}

func newReport(o options) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Host:    hostInfo(),
		Config:  map[string]any{},
		metrics: map[string]float64{},
	}
}

// fail records an output mismatch or error; any makes the run incorrect.
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

var workloads = map[string]func(options, prepared, *report) error{
	"serve-closed": runServeClosed,
	"serve-open":   runServeOpen,
	"interpret":    runInterpret,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.root, "root", ".", "root of the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceN == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1+*traceN || (*traceN != 0 && *traceN != 1) || fs.NArg() > 0 {
		// A traced run alternates traced and untraced windows: it needs two.
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds ≥ 1 (2 when traced)\n", strings.Join(names, ", "))
		return 2
	}
	o.build = filepath.Join(o.root, ".bench_build")
	for _, d := range []string{"run", "trace", "results"} {
		if err := os.MkdirAll(filepath.Join(o.build, d), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	p, err := prepare(o.build)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := newReport(o)
	h0, err := readHostTicks()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := wl(o, p, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	// The share of CPU time the hypervisor gave to other guests during the
	// run: on a shared host every wall-clock metric moves with it.
	if h1, err := readHostTicks(); err == nil {
		r.Host["steal_share"] = h1.stealShare(h0)
	}
	return emit(o, r, stdout, stderr)
}

// emit prints the run record, the per-layer table of a traced run, and the
// result line; it also keeps the record and any spans under .bench_build.
func emit(o options, r *report, stdout, stderr io.Writer) int {
	tag := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.trace {
		tag += "-traced"
		// One span file per workload, overwritten by its next traced run.
		path := filepath.Join(o.build, "trace", o.workload+".csv")
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.spans), path)
		printLayerTable(stdout, r.layers)
	}
	rec, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(o.build, "results", tag+".json"), rec, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record: %s\n", rec)

	list := endToEnd
	if o.trace {
		list = perLayer
		// A workload that bypasses a layer did no work in it.
		for _, m := range perLayer {
			if _, ok := r.metrics[m.name]; !ok {
				r.metrics[m.name] = 0
			}
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.errs == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintln(stderr, "perfbench: no value for", strings.Join(missing, ", "))
		return 1
	}
	if out.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp runs setup setupReps times, tearing down every instance but the
// last, and returns the last instance and the time each set-up took.
func setUp[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(v)
			continue
		}
		inst = v
	}
	return inst, times, nil
}
