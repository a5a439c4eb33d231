package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"slices"

	"repro/client"
	"repro/internal/serve"
)

// request is one predict request of a serve workload, with the prediction
// the served artifact must return for it.
type request struct {
	model       string
	rows        [][]float64
	wantActions []int
	wantValues  [][]float64
}

// check reports whether p is bit for bit the expected prediction.
func (r *request) check(p *client.Prediction) error {
	if r.wantValues != nil {
		if len(p.Values) != len(r.wantValues) {
			return fmt.Errorf("%s: %d values, want %d", r.model, len(p.Values), len(r.wantValues))
		}
		for i, row := range r.wantValues {
			if len(p.Values[i]) != len(row) {
				return fmt.Errorf("%s: row %d has %d outputs, want %d", r.model, i, len(p.Values[i]), len(row))
			}
			for j, v := range row {
				if math.Float64bits(p.Values[i][j]) != math.Float64bits(v) {
					return fmt.Errorf("%s: row %d output %d = %v, want %v", r.model, i, j, p.Values[i][j], v)
				}
			}
		}
		return nil
	}
	if !slices.Equal(p.Actions, r.wantActions) {
		return fmt.Errorf("%s: actions %v, want %v", r.model, p.Actions, r.wantActions)
	}
	return nil
}

// requestPool draws, for each model and batch size, n requests whose rows
// are sampled with the seed from the model's own distillation corpus, and
// labels each with the in-process prediction of the served artifacts.
// pool[m][s] holds model m's requests of size sizes[s].
func requestPool(p prepared, models []string, sizes []int, n int, seed int64) ([][][]*request, *serve.Engine, error) {
	eng, err := serve.NewEngine(p.models, serve.Config{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	pool := make([][][]*request, len(models))
	for mi, name := range models {
		corpus, err := loadCorpus(filepath.Join(p.corpora, name+".metis"))
		if err != nil {
			return nil, nil, err
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		pool[mi] = make([][]*request, len(sizes))
		for si, size := range sizes {
			for k := 0; k < n; k++ {
				r := &request{model: name, rows: make([][]float64, size)}
				for i := range r.rows {
					r.rows[i] = corpus.Row(rng.Intn(corpus.Len()), nil)
				}
				var pred serve.Prediction
				if err := eng.PredictInto(name, r.rows, &pred); err != nil {
					return nil, nil, fmt.Errorf("in-process predict %s: %w", name, err)
				}
				if pred.Values != nil {
					r.wantValues = make([][]float64, len(pred.Values))
					for i, v := range pred.Values {
						r.wantValues[i] = append([]float64(nil), v...)
					}
				} else {
					r.wantActions = append([]int(nil), pred.Actions...)
				}
				pool[mi][si] = append(pool[mi][si], r)
			}
		}
	}
	return pool, eng, nil
}
