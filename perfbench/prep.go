package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/auto"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/scenarios"
)

// The test-scale students the serve workloads serve, and the scenario that
// produces each. abr and auto-lrla are classifiers, auto-srla a regression
// tree.
var servedScenarios = []string{"abr", "auto-lrla", "auto-srla"}

// prepared locates the artifacts a run reads. They depend only on the code
// (every training seed is fixed), never on the workload seed, so they are
// built once per checkout, like the binaries, and not timed.
type prepared struct {
	// models is the artifact directory the daemon serves.
	models string
	// corpora holds one distillation corpus per served student, named
	// <model>.metis: the states rows are drawn from.
	corpora string
	// shadow holds the cached teachers (and no corpora, so shadowing is
	// score-only) for the daemon's -shadow-dir.
	shadow string
	// fixture is the experiment fixture cache: the Pensieve and RouteNet
	// teachers the interpret workload loads.
	fixture string
}

func preparedAt(dir string) prepared {
	return prepared{
		models:  filepath.Join(dir, "models"),
		corpora: filepath.Join(dir, "corpora"),
		shadow:  filepath.Join(dir, "shadow"),
		fixture: filepath.Join(dir, "fixture"),
	}
}

// prepare returns the prepared artifacts under build, producing them first
// when this build of the benchmark has not yet. The directory is keyed by a
// hash of the benchmark binary, so a code change never reuses stale models.
func prepare(build string) (prepared, error) {
	key, err := selfHash()
	if err != nil {
		return prepared{}, err
	}
	dir := filepath.Join(build, "prep", key)
	if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
		return preparedAt(dir), nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return prepared{}, err
	}
	if err := produce(tmp); err != nil {
		return prepared{}, fmt.Errorf("prepare artifacts: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
		return prepared{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return prepared{}, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return prepared{}, err
	}
	return preparedAt(dir), nil
}

// selfHash is a short hash of the running executable.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// produce runs the test-scale scenario pipeline for the served students and
// trains the interpret workload's teachers, all into dir.
func produce(dir string) error {
	p := preparedAt(dir)
	cache := filepath.Join(dir, "scenario-cache")
	for _, d := range []string{p.models, p.corpora, p.shadow, p.fixture, cache} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	cfg := scenario.Config{Scale: scenario.ScaleTest, Workers: benchWorkers, CacheDir: cache, OutDir: p.models}
	if _, err := (&scenario.Pipeline{Config: cfg}).RunAll(servedScenarios); err != nil {
		return err
	}
	// Manifests are not servable; keep the served directory to students.
	manifests, err := filepath.Glob(filepath.Join(p.models, "*.manifest.metis"))
	if err != nil {
		return err
	}
	for _, m := range manifests {
		if err := os.Remove(m); err != nil {
			return err
		}
	}

	for _, name := range servedScenarios {
		model := name + "-test"
		// The classifiers' pipelines cached their DAgger corpus; the
		// regression student's corpus is recollected with the scenario's own
		// recipe (60 workload states, 200 leaves at test scale).
		if name == "auto-srla" {
			sc, _ := scenario.Get(name)
			teacher, err := sc.Train(cfg)
			if err != nil {
				return err
			}
			srla, ok := teacher.Model().(*auto.SRLA)
			if !ok {
				return fmt.Errorf("auto-srla teacher is %T", teacher.Model())
			}
			_, ds, err := scenarios.DistillSRLATree(srla, 60, 200, benchWorkers)
			if err != nil {
				return err
			}
			if err := artifact.SaveModel(filepath.Join(p.corpora, model+".metis"), ds, map[string]string{"name": model}); err != nil {
				return err
			}
			continue
		}
		corpus := filepath.Join(cache, "scenario-"+name+"-test-dataset.metis")
		if err := copyFile(corpus, filepath.Join(p.corpora, model+".metis")); err != nil {
			return err
		}
		teacher := filepath.Join(cache, "scenario-"+name+"-test.metis")
		if err := copyFile(teacher, filepath.Join(p.shadow, filepath.Base(teacher))); err != nil {
			return err
		}
	}

	f := experiments.NewFixture(experiments.TestScale)
	f.CacheDir, f.Workers = p.fixture, benchWorkers
	f.Pensieve()
	f.RouteNet()
	return nil
}

// loadCorpus reads a prepared distillation corpus.
func loadCorpus(path string) (*dataset.Table, error) {
	a, err := artifact.Open(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != artifact.KindDataset {
		return nil, fmt.Errorf("%s: kind %s, want %s", path, a.Kind, artifact.KindDataset)
	}
	t := new(dataset.Table)
	if err := t.UnmarshalBinary(a.Payload); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.Len() == 0 {
		return nil, errors.New(path + ": empty corpus")
	}
	return t, nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
