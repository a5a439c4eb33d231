package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/histo"
)

// maxJSONBody bounds a JSON request body; the binary codec bounds itself by
// row/feature counts instead.
const maxJSONBody = 64 << 20

// Handler returns the HTTP API over the engine:
//
//	GET  /healthz                      liveness probe
//	GET  /v2/models                    registry listing
//	GET  /v2/models/{name}             one model's detail + live counters
//	POST /v2/models/{name}:predict     prediction (JSON or binary batch)
//	GET  /v2/stats                     engine counters, uptime, reload state
//	POST /v2/admin/reload              hot-reload the artifact directory
//	GET  /metrics                      Prometheus text exposition
//
// plus the v1 surface, kept as a thin shim over the same engine:
//
//	GET  /v1/models, GET /v1/models/{name}, POST /v1/predict, GET /v1/stats
//
// Predict routes honor the X-Metis-Tenant header when the backend runs
// weighted fair admission; requests without it are keyed by model name.
func (e *Engine) Handler() http.Handler { return (&front{e}).handler() }

// handler builds the shared HTTP mux over any Backend (flat or sharded).
func (f *front) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})

	// v2: the engine-native surface.
	mux.HandleFunc("GET /v2/models", f.handleModels)
	mux.HandleFunc("GET /v2/models/{name}", f.handleModelDetail)
	mux.HandleFunc("POST /v2/models/{action}", f.handleModelAction)
	mux.HandleFunc("GET /v2/stats", f.handleStatsV2)
	mux.HandleFunc("POST /v2/admin/reload", f.handleReload)
	mux.HandleFunc("GET /metrics", f.handleMetrics)

	// v1 shim: same engine, original routes and response shapes. The mux
	// patterns give v1 the same {name} matching as v2, fixing the old raw
	// TrimPrefix resolution (percent-escapes now decode, and names with
	// path separators can no longer alias other routes).
	mux.HandleFunc("GET /v1/models", f.handleModels)
	mux.HandleFunc("GET /v1/models/{name}", f.handleModelDetail)
	mux.HandleFunc("POST /v1/predict", f.handlePredictJSON)
	mux.HandleFunc("GET /v1/stats", f.handleStatsV1)
	return mux
}

// modelInfo is one models-listing row.
type modelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Scenario tags which pipeline domain produced the model (from the
	// artifact's "scenario" metadata; empty for hand-saved artifacts).
	Scenario   string            `json:"scenario,omitempty"`
	Nodes      int               `json:"nodes"`
	Features   int               `json:"features"`
	Classes    int               `json:"classes,omitempty"`
	OutDim     int               `json:"out_dim,omitempty"`
	Regression bool              `json:"regression"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// info renders a model's registry row.
func (m *Model) info() modelInfo {
	return modelInfo{
		Name: m.Name, Kind: m.Kind, Scenario: m.Meta["scenario"],
		Nodes: m.NumNodes(), Features: m.NumFeatures(),
		Classes: m.NumClasses(), OutDim: m.OutDim(),
		Regression: m.IsRegression(), Meta: m.Meta,
	}
}

func (f *front) handleModels(w http.ResponseWriter, r *http.Request) {
	var infos []modelInfo
	for _, m := range f.b.Models() {
		infos = append(infos, m.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// modelStats is one stats entry.
type modelStats struct {
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
	// Generation is the model's refit generation (0 = seed student); it
	// advances when the shadow loop refits and reverts on rollback, so an
	// operator polling stats can watch a canary converge.
	Generation int64 `json:"generation"`
	// Fidelity is the shadow loop's windowed teacher-agreement estimate for
	// this model; absent until a mirror is installed and its window fills.
	Fidelity *float64 `json:"fidelity,omitempty"`
}

// statsFor renders one model's stats entry, folding in the mirror's
// fidelity estimate when one is measuring this model.
func statsFor(m *Model, snap *MirrorSnapshot) modelStats {
	s := modelStats{
		Requests:    m.requests.Load(),
		Predictions: m.predictions.Load(),
		Generation:  m.Generation,
	}
	if snap != nil {
		if ms, ok := snap.Models[m.Name]; ok && ms.Fidelity >= 0 {
			f := ms.Fidelity
			s.Fidelity = &f
		}
	}
	return s
}

// modelDetail is the models/{name} body: the registry row plus the model's
// live counters.
type modelDetail struct {
	modelInfo
	Stats modelStats `json:"stats"`
}

func (f *front) handleModelDetail(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := f.b.Model(name)
	if !ok {
		f.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	writeJSON(w, http.StatusOK, modelDetail{
		modelInfo: m.info(),
		Stats:     statsFor(m, f.b.mirrorSnapshot()),
	})
}

// handleModelAction routes POST /v2/models/{name}:{verb}. The whole last
// segment arrives as one path value; the verb is split off at the final
// colon, so model names themselves may contain colons.
func (f *front) handleModelAction(w http.ResponseWriter, r *http.Request) {
	seg := r.PathValue("action")
	i := strings.LastIndex(seg, ":")
	if i < 0 {
		f.fail(w, http.StatusNotFound, fmt.Sprintf("POST %s: want /v2/models/{name}:predict", r.URL.Path))
		return
	}
	name, verb := seg[:i], seg[i+1:]
	if verb != "predict" {
		f.fail(w, http.StatusNotFound, fmt.Sprintf("unknown model action %q (supported: predict)", verb))
		return
	}
	// Codec negotiation: the binary batch type selects the packed codec;
	// anything else is decoded as JSON (curl -d sends
	// x-www-form-urlencoded, so being strict here would break the plain
	// curl examples — a non-JSON body still fails with a clear 400).
	if contentType(r) == ContentTypeBinary {
		f.predictBinary(w, r, name)
		return
	}
	f.predictJSONNamed(w, r, name)
}

// contentType returns the media type of the request body without parameters.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}

// predictBinary is the high-throughput path: binary request in, binary
// response out. All per-call buffers — decode, outputs, encode — come from
// the shared scratch pool, so steady-state binary serving reuses the same
// few allocations across requests.
func (f *front) predictBinary(w http.ResponseWriter, r *http.Request, name string) {
	s := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(s)
	bodyModel, rows, err := s.decodeRequest(r.Body, f.b.maxBatch())
	if err != nil {
		f.failErr(w, err)
		return
	}
	if bodyModel != "" && bodyModel != name {
		f.fail(w, http.StatusBadRequest,
			fmt.Sprintf("body names model %q but the URL names %q", bodyModel, name))
		return
	}
	if err := f.b.predictTenant(r.Header.Get(TenantHeader), name, rows, &s.pred); err != nil {
		f.failErr(w, err)
		return
	}
	if s.resp, err = appendBatchResponse(s.resp, &s.pred); err != nil {
		f.failErr(w, err)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Write(s.resp)
}

// predictRequest is the JSON predict body: exactly one of X (single) or Xs
// (batch) must be set. Model is required on /v1/predict and optional on the
// per-model v2 route (where it must match the URL if present).
type predictRequest struct {
	Model string      `json:"model"`
	X     []float64   `json:"x,omitempty"`
	Xs    [][]float64 `json:"xs,omitempty"`
}

// predictResponse carries either a class decision or a regression vector,
// singly or per batch row.
type predictResponse struct {
	Model   string      `json:"model"`
	Action  *int        `json:"action,omitempty"`
	Actions []int       `json:"actions,omitempty"`
	Value   []float64   `json:"value,omitempty"`
	Values  [][]float64 `json:"values,omitempty"`
}

// handlePredictJSON is the v1 predict route: the model is named in the body.
func (f *front) handlePredictJSON(w http.ResponseWriter, r *http.Request) {
	req, ok := f.decodePredictJSON(w, r)
	if !ok {
		return
	}
	f.servePredictJSON(w, r, req.Model, req)
}

// predictJSONNamed is the v2 per-model JSON predict: the URL names the model.
func (f *front) predictJSONNamed(w http.ResponseWriter, r *http.Request, name string) {
	req, ok := f.decodePredictJSON(w, r)
	if !ok {
		return
	}
	if req.Model != "" && req.Model != name {
		f.fail(w, http.StatusBadRequest,
			fmt.Sprintf("body names model %q but the URL names %q", req.Model, name))
		return
	}
	f.servePredictJSON(w, r, name, req)
}

// decodePredictJSON parses and shape-checks a JSON predict body.
func (f *front) decodePredictJSON(w http.ResponseWriter, r *http.Request) (*predictRequest, bool) {
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err := dec.Decode(&req); err != nil {
		f.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	if (req.X != nil) == (req.Xs != nil) {
		f.fail(w, http.StatusBadRequest, `set exactly one of "x" (single) or "xs" (batch)`)
		return nil, false
	}
	return &req, true
}

// servePredictJSON runs the decoded request through the engine and renders
// the JSON response.
func (f *front) servePredictJSON(w http.ResponseWriter, r *http.Request, name string, req *predictRequest) {
	single := req.X != nil
	rows := req.Xs
	if single {
		rows = [][]float64{req.X}
	}
	var p Prediction
	if err := f.b.predictTenant(r.Header.Get(TenantHeader), name, rows, &p); err != nil {
		f.failErr(w, err)
		return
	}
	resp := predictResponse{Model: p.Model}
	switch {
	case p.Values != nil && single:
		resp.Value = p.Values[0]
	case p.Values != nil:
		resp.Values = p.Values
	case single:
		resp.Action = &p.Actions[0]
	default:
		resp.Actions = p.Actions
	}
	writeJSON(w, http.StatusOK, resp)
}

func (f *front) handleStatsV1(w http.ResponseWriter, r *http.Request) {
	per := map[string]modelStats{}
	for _, m := range f.b.Models() {
		per[m.Name] = modelStats{Requests: m.requests.Load(), Predictions: m.predictions.Load()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(f.b.startTime()).Seconds(),
		"requests": f.b.requestsTotal(),
		"errors":   f.b.errorsTotal(),
		"models":   per,
	})
}

func (f *front) handleStatsV2(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.statsBody())
}

// latencyBody renders a latency histogram as the stats document's latency
// block.
func latencyBody(h *histo.Histogram) map[string]any {
	return map[string]any{
		"count":   h.Count(),
		"mean_us": h.Mean() / 1e3,
		"p50_us":  float64(h.Quantile(0.50)) / 1e3,
		"p99_us":  float64(h.Quantile(0.99)) / 1e3,
		"p999_us": float64(h.Quantile(0.999)) / 1e3,
		"max_us":  float64(h.Max()) / 1e3,
	}
}

// statsBody builds the v2 stats document (shared by the HTTP route and the
// socket transport's "stats" control op). A flat engine renders exactly the
// pre-sharding document; a sharded backend adds "shards" and (with tenant
// gating) "tenants" blocks.
func (f *front) statsBody() map[string]any {
	snap := f.b.mirrorSnapshot()
	per := map[string]modelStats{}
	for _, m := range f.b.Models() {
		per[m.Name] = statsFor(m, snap)
	}
	shadow := map[string]any{"enabled": snap != nil}
	if snap != nil {
		shadow["sampled"] = snap.Sampled
		shadow["dropped"] = snap.Dropped
		shadow["scored"] = snap.Scored
		shadow["stale"] = snap.Stale
		shadow["disagreements"] = snap.Disagreements
		shadow["refits"] = snap.Refits
		shadow["rollbacks"] = snap.Rollbacks
	}
	sc := f.b.shmc()
	body := map[string]any{
		"uptime_s":  time.Since(f.b.startTime()).Seconds(),
		"requests":  f.b.requestsTotal(),
		"errors":    f.b.errorsTotal(),
		"reloads":   f.b.Reloads(),
		"dir":       f.b.Dir(),
		"loaded_at": f.b.LoadedAt().UTC().Format(time.RFC3339),
		"models":    per,
		"shadow":    shadow,
		"shm": map[string]any{
			"conns": sc.conns.Load(),
			"wakes": sc.wakes.Load(),
		},
		"latency": f.b.latencySummary(),
	}
	if shards := f.b.shardStats(); shards != nil {
		body["shards"] = shards
	}
	if tenants := f.b.tenantStats(); tenants != nil {
		body["tenants"] = tenants
	}
	return body
}

// reloadRequest is the optional /v2/admin/reload body.
type reloadRequest struct {
	// Dir switches the engine to a new artifact directory; empty reloads
	// the current one.
	Dir string `json:"dir"`
}

func (f *front) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		f.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	} else if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			f.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	if err := f.b.Reload(req.Dir); err != nil {
		// The old generation is still serving; the reload itself failed.
		f.fail(w, http.StatusConflict, err.Error())
		return
	}
	names := make([]string, 0)
	for _, m := range f.b.Models() {
		names = append(names, m.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded": true,
		"dir":      f.b.Dir(),
		"models":   names,
		"skipped":  len(f.b.Skipped()),
	})
}

// handleMetrics renders the engine counters in the Prometheus text
// exposition format — no client library, the format is four line shapes.
func (f *front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("metis_requests_total", "Predict calls admitted or rejected by the engine.", f.b.requestsTotal())
	counter("metis_errors_total", "Requests that failed (any 4xx/5xx).", f.b.errorsTotal())
	counter("metis_reloads_total", "Registry hot reloads applied.", f.b.Reloads())
	counter("metis_shm_wakes_total", "Doorbell frames written to parked ring clients (flat while rings stay busy).", f.b.shmc().wakes.Load())
	// Shadow-loop counters render as zeros until a mirror is installed, so
	// scrapers see a stable metric set whether or not -shadow-rate is on.
	var snap MirrorSnapshot
	if s := f.b.mirrorSnapshot(); s != nil {
		snap = *s
	}
	counter("metis_shadow_sampled_total", "Predict batches mirrored to the shadow-scoring queue.", snap.Sampled)
	counter("metis_shadow_dropped_total", "Sampled batches dropped because the shadow queue was full.", snap.Dropped)
	counter("metis_shadow_stale_total", "Sampled batches discarded because a generation no longer serving answered them.", snap.Stale)
	counter("metis_shadow_disagreements_total", "Shadow-scored rows where teacher and student disagreed.", snap.Disagreements)
	counter("metis_shadow_refits_total", "Drift-triggered student refits applied by the shadow loop.", snap.Refits)
	counter("metis_shadow_rollbacks_total", "Refits rolled back because the new student measured worse.", snap.Rollbacks)
	fmt.Fprintf(&b, "# HELP metis_shm_conns Connections currently serving shared-memory ring traffic.\n# TYPE metis_shm_conns gauge\nmetis_shm_conns %d\n",
		f.b.shmc().conns.Load())
	fmt.Fprintf(&b, "# HELP metis_uptime_seconds Engine uptime.\n# TYPE metis_uptime_seconds gauge\nmetis_uptime_seconds %.3f\n",
		time.Since(f.b.startTime()).Seconds())
	models := f.b.Models() // already sorted by name
	fmt.Fprintf(&b, "# HELP metis_models Servable models in the current registry generation.\n# TYPE metis_models gauge\nmetis_models %d\n", len(models))
	if shards := f.b.shardStats(); shards != nil {
		b.WriteString("# HELP metis_shard_requests_total Predict requests per engine shard.\n# TYPE metis_shard_requests_total counter\n")
		for _, ss := range shards {
			fmt.Fprintf(&b, "metis_shard_requests_total{shard=\"%d\"} %d\n", ss.Shard, ss.Requests)
		}
	}
	if tenants := f.b.tenantStats(); tenants != nil {
		b.WriteString("# HELP metis_tenant_admitted_total Predict calls admitted per tenant.\n# TYPE metis_tenant_admitted_total counter\n")
		for name, ts := range tenants {
			fmt.Fprintf(&b, "metis_tenant_admitted_total{tenant=%q} %d\n", name, ts.Admitted)
		}
		b.WriteString("# HELP metis_tenant_rejected_total Predict calls rejected or shed per tenant.\n# TYPE metis_tenant_rejected_total counter\n")
		for name, ts := range tenants {
			fmt.Fprintf(&b, "metis_tenant_rejected_total{tenant=%q} %d\n", name, ts.Rejected+ts.Shed)
		}
	}
	b.WriteString("# HELP metis_model_requests_total Predict requests per model.\n# TYPE metis_model_requests_total counter\n")
	for _, m := range models {
		fmt.Fprintf(&b, "metis_model_requests_total{model=%q} %d\n", m.Name, m.requests.Load())
	}
	b.WriteString("# HELP metis_model_predictions_total Rows predicted per model.\n# TYPE metis_model_predictions_total counter\n")
	for _, m := range models {
		fmt.Fprintf(&b, "metis_model_predictions_total{model=%q} %d\n", m.Name, m.predictions.Load())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// failErr maps an engine error to its HTTP status. A 503 carries a computed
// Retry-After — the admission gate's own estimate when the error brought
// one, else the backend's generic backpressure hint — rendered in fractional
// seconds (RFC 9110 allows only integer seconds, but every consumer here is
// the metis client, which parses fractions; an integer-only client rounding
// down to 0 just retries immediately, as it did with the old hardcoded 1).
func (f *front) failErr(w http.ResponseWriter, err error) {
	var (
		unknown *UnknownModelError
		size    *BatchSizeError
		busy    *BusyError
	)
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBusy):
		code = http.StatusServiceUnavailable
		ra := f.b.busyRetryAfter()
		if errors.As(err, &busy) && busy.RetryAfter > 0 {
			ra = busy.RetryAfter
		}
		w.Header().Set("Retry-After", formatRetryAfter(ra))
	case errors.As(err, &unknown):
		code = http.StatusNotFound
	case errors.As(err, &size):
		code = http.StatusRequestEntityTooLarge
	}
	f.fail(w, code, err.Error())
}

// formatRetryAfter renders a Retry-After duration as fractional seconds.
func formatRetryAfter(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// fail renders a JSON error and accounts it in the engine error counter —
// the single error-accounting point of the HTTP layer, so every 4xx/5xx
// response bumps the counter exactly once.
func (f *front) fail(w http.ResponseWriter, code int, msg string) {
	f.b.addError()
	writeJSON(w, code, map[string]string{"error": msg})
}
