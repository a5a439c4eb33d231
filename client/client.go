// Package client is the Go SDK for a metis-serve endpoint: typed access to
// the v2 serving API — model listing, single and batch prediction, stats,
// and hot reload. Batch prediction uses the binary row-major batch codec
// (application/x-metis-batch) by default, falling back to JSON when the
// server does not accept it, and every call retries on 503 (the engine's
// admission-control signal) with exponential backoff.
//
//	c := client.New("http://localhost:9090")
//	models, _ := c.Models(ctx)
//	pred, _ := c.PredictBatch(ctx, "quickstart", [][]float64{{2, 1}, {14, 4}})
//	fmt.Println(pred.Actions)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Client talks to one metis-serve endpoint — an HTTP base URL, or a framed
// unix-domain socket when the base is "unix:///path/to.sock". It is safe for
// concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	// uds is set when the base names a unix socket; every call then rides
	// the framed socket protocol instead of HTTP.
	uds *udsTransport
	// jsonOnly disables the binary batch codec (WithJSON, or a server that
	// rejected it once with 415 — old servers answer the per-model route
	// only for JSON).
	jsonOnly atomic.Bool
	// replicas, when set (WithReplicas), routes each HTTP call to the
	// least-loaded replica not currently shedding; base is then unused.
	replicas *replicaSet
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying *http.Client (timeouts, transport).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithJSON forces the JSON codec for batch prediction (e.g. for debugging
// with a proxy that cannot pass binary bodies).
func WithJSON() Option { return func(c *Client) { c.jsonOnly.Store(true) } }

// WithRetries sets how many times a call is retried on 503 before giving up
// (default 3; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the initial retry backoff, doubled per attempt (default
// 50ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithConns sets how many multiplexed unix-socket connections predict calls
// are fanned over (default 2). No effect on HTTP endpoints or v1 servers.
func WithConns(n int) Option {
	return func(c *Client) {
		if c.uds != nil && n > 0 {
			c.uds.conns = n
		}
	}
}

// WithInflight caps the number of in-flight predict frames per multiplexed
// connection (default 128); callers beyond the cap queue client-side. No
// effect on HTTP endpoints or v1 servers.
func WithInflight(n int) Option {
	return func(c *Client) {
		if c.uds != nil && n > 0 {
			c.uds.inflight = n
		}
	}
}

// WithSharedMemory asks unix-socket connections to negotiate a per-connection
// shared-memory ring segment (the MTS1 upgrade): steady-state predict calls
// then move through mmap'd rings with zero syscalls on either side, the
// socket serving only as a wake-up channel. Servers without the upgrade, or
// hosts where the segment cannot be mapped, fall back to the pipelined v2
// framing transparently; payloads larger than a ring slot take the framed
// path per call. No effect on HTTP endpoints.
func WithSharedMemory() Option {
	return func(c *Client) {
		if c.uds != nil {
			c.uds.shm = true
		}
	}
}

// New returns a client for the serving daemon at baseURL: either an HTTP
// base (scheme://host[:port], with or without a trailing slash) or a framed
// unix-domain socket ("unix:///var/run/metis.sock" — the path after the
// scheme is the socket file). The socket transport carries the same binary
// batch payloads as HTTP without per-request connection or header costs, and
// is the right choice for co-located high-rate callers.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 3,
		backoff: 50 * time.Millisecond,
	}
	if path, ok := strings.CutPrefix(baseURL, "unix://"); ok {
		c.uds = newUDSTransport(path)
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the server, carrying the decoded
// error message when the body held one.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint on a 503 (zero when the
	// header was absent or unparsable). The engine computes it from live
	// queue depth, so it is the honest earliest time a retry can succeed.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("client: server returned %d", e.Status)
}

// Prediction is a predict result: Actions for classification models, Values
// for regression models — exactly one is non-nil, one entry per input row.
type Prediction struct {
	Actions []int
	Values  [][]float64
}

// ModelInfo mirrors one row of GET /v2/models.
type ModelInfo struct {
	Name       string            `json:"name"`
	Kind       string            `json:"kind"`
	Scenario   string            `json:"scenario,omitempty"`
	Nodes      int               `json:"nodes"`
	Features   int               `json:"features"`
	Classes    int               `json:"classes,omitempty"`
	OutDim     int               `json:"out_dim,omitempty"`
	Regression bool              `json:"regression"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// ModelStats are one model's live counters.
type ModelStats struct {
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
	// Generation is the model's refit generation (0 = seed student); the
	// server's shadow loop advances it on refit and reverts it on rollback.
	Generation int64 `json:"generation"`
	// Fidelity is the shadow loop's windowed teacher-agreement estimate,
	// nil until the server shadows this model and its window fills.
	Fidelity *float64 `json:"fidelity,omitempty"`
}

// ModelDetail is GET /v2/models/{name}: the registry row plus counters.
type ModelDetail struct {
	ModelInfo
	Stats ModelStats `json:"stats"`
}

// ShadowStats is the continuous-distillation block of GET /v2/stats.
type ShadowStats struct {
	Enabled       bool  `json:"enabled"`
	Sampled       int64 `json:"sampled"`
	Dropped       int64 `json:"dropped"`
	Scored        int64 `json:"scored"`
	Stale         int64 `json:"stale"`
	Disagreements int64 `json:"disagreements"`
	Refits        int64 `json:"refits"`
	Rollbacks     int64 `json:"rollbacks"`
}

// Stats is GET /v2/stats.
type Stats struct {
	UptimeSeconds float64               `json:"uptime_s"`
	Requests      int64                 `json:"requests"`
	Errors        int64                 `json:"errors"`
	Reloads       int64                 `json:"reloads"`
	Dir           string                `json:"dir"`
	Models        map[string]ModelStats `json:"models"`
	Shadow        ShadowStats           `json:"shadow"`
}

// do issues one request with 503-retry, returning the response body for a
// 2xx status and *APIError otherwise. mkBody re-creates the request body
// per attempt.
func (c *Client) do(ctx context.Context, method, path, contentType string, mkBody func() io.Reader) (*http.Response, error) {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if mkBody != nil {
			body = mkBody()
		}
		base := c.base
		var rep *replica
		if c.replicas != nil {
			rep = c.replicas.pick(time.Now())
			base = rep.base
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, body)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if rep != nil {
			rep.inflight.Add(1)
		}
		resp, err := c.hc.Do(req)
		if rep != nil {
			rep.inflight.Add(-1)
		}
		if err != nil {
			if rep != nil && attempt < c.retries {
				// An unreachable replica is shedding in the hardest way;
				// bench it briefly and fail over.
				rep.penalize(time.Now(), time.Second)
				continue
			}
			return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < c.retries {
			// Admission control pushed back; drain and retry. The server's
			// Retry-After (fractional seconds) overrides our blind backoff —
			// and with replicas the sleep collapses to zero whenever another
			// replica is ready now.
			ra := parseRetryAfter(resp.Header)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			wait := backoff
			if ra > 0 {
				wait = ra
			}
			if rep != nil {
				if ra > 0 {
					rep.penalize(time.Now(), ra)
				}
				wait = c.replicas.retryWait(time.Now())
			}
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			backoff *= 2
			continue
		}
		if resp.StatusCode/100 != 2 {
			defer resp.Body.Close()
			apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header)}
			var e struct {
				Error string `json:"error"`
			}
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil {
				apiErr.Msg = e.Error
			}
			return nil, apiErr
		}
		return resp, nil
	}
}

// getJSON fetches path into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// Models lists the served models.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if c.uds != nil {
		if err := c.udsControl(ctx, "models", "", "", &out); err != nil {
			return nil, err
		}
		return out.Models, nil
	}
	if err := c.getJSON(ctx, "/v2/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Model fetches one model's detail and live counters.
func (c *Client) Model(ctx context.Context, name string) (*ModelDetail, error) {
	var out ModelDetail
	if c.uds != nil {
		if err := c.udsControl(ctx, "model", name, "", &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	if err := c.getJSON(ctx, "/v2/models/"+url.PathEscape(name), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the engine counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if c.uds != nil {
		if err := c.udsControl(ctx, "stats", "", "", &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	if err := c.getJSON(ctx, "/v2/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reload asks the server to hot-reload its artifact directory (dir == ""
// reloads the currently served one) and returns the model names served
// afterwards.
func (c *Client) Reload(ctx context.Context, dir string) ([]string, error) {
	if c.uds != nil {
		var out struct {
			Models []string `json:"models"`
		}
		if err := c.udsControl(ctx, "reload", "", dir, &out); err != nil {
			return nil, err
		}
		return out.Models, nil
	}
	body, err := json.Marshal(map[string]string{"dir": dir})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v2/admin/reload", "application/json",
		func() io.Reader { return bytes.NewReader(body) })
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode reload response: %w", err)
	}
	return out.Models, nil
}

// predictPath is the per-model v2 predict route for name.
func predictPath(name string) string {
	return "/v2/models/" + url.PathEscape(name) + ":predict"
}

// jsonPrediction is the JSON predict response shape.
type jsonPrediction struct {
	Action  *int        `json:"action"`
	Actions []int       `json:"actions"`
	Value   []float64   `json:"value"`
	Values  [][]float64 `json:"values"`
}

// Predict runs one input row through a model (over HTTP: the JSON codec —
// single-row requests gain nothing from the binary format; over a unix
// socket: a one-row binary batch).
func (c *Client) Predict(ctx context.Context, model string, x []float64) (*Prediction, error) {
	if c.uds != nil {
		return c.udsPredictBatch(ctx, model, [][]float64{x})
	}
	body, err := json.Marshal(map[string]any{"x": x})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, predictPath(model), "application/json",
		func() io.Reader { return bytes.NewReader(body) })
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out jsonPrediction
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode prediction: %w", err)
	}
	p := &Prediction{}
	switch {
	case out.Action != nil:
		p.Actions = []int{*out.Action}
	case out.Value != nil:
		p.Values = [][]float64{out.Value}
	default:
		return nil, fmt.Errorf("client: prediction response carried neither action nor value")
	}
	return p, nil
}

// PredictBatch runs a batch through a model. The binary batch codec is used
// by default; a server answering 415 (no binary support) flips the client
// to JSON permanently, so mixed fleets keep working at the JSON rate.
func (c *Client) PredictBatch(ctx context.Context, model string, rows [][]float64) (*Prediction, error) {
	if c.uds != nil {
		return c.udsPredictBatch(ctx, model, rows)
	}
	if !c.jsonOnly.Load() {
		p, err := c.predictBatchBinary(ctx, model, rows)
		var apiErr *APIError
		if err != nil && errors.As(err, &apiErr) && apiErr.Status == http.StatusUnsupportedMediaType {
			c.jsonOnly.Store(true)
		} else {
			return p, err
		}
	}
	return c.predictBatchJSON(ctx, model, rows)
}

func (c *Client) predictBatchBinary(ctx context.Context, model string, rows [][]float64) (*Prediction, error) {
	var buf bytes.Buffer
	if err := serve.EncodeBatchRequest(&buf, model, rows); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, predictPath(model), serve.ContentTypeBinary,
		func() io.Reader { return bytes.NewReader(buf.Bytes()) })
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sp, err := serve.DecodeBatchResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return &Prediction{Actions: sp.Actions, Values: sp.Values}, nil
}

func (c *Client) predictBatchJSON(ctx context.Context, model string, rows [][]float64) (*Prediction, error) {
	body, err := json.Marshal(map[string]any{"xs": rows})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, predictPath(model), "application/json",
		func() io.Reader { return bytes.NewReader(body) })
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out jsonPrediction
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode prediction: %w", err)
	}
	if out.Actions == nil && out.Values == nil {
		return nil, fmt.Errorf("client: batch response carried neither actions nor values")
	}
	return &Prediction{Actions: out.Actions, Values: out.Values}, nil
}
