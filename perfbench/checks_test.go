package main

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	exflow "repro"
	"repro/internal/engine"
	"repro/internal/obs"
)

func tinyWorkload(t *testing.T, name string, seed uint64) workload {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sp.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(ws, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil, false); err != nil {
		t.Fatal(err)
	}
	return w
}

// wantFail asserts that a check rejects a corrupted input with an error
// naming what it found.
func wantFail(t *testing.T, what string, err error, mention string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check passed a corrupted input", what)
	} else if !strings.Contains(err.Error(), mention) {
		t.Errorf("%s: error %q does not mention %q", what, err, mention)
	}
}

func TestCheckOutputsFailsOnCorruptedOutputs(t *testing.T) {
	w := tinyWorkload(t, "offline-paper", 1).(*offline)
	van := w.sys.Run(engine.Vanilla, w.sys.Baseline(), w.load)
	exf := w.sys.Run(engine.ExFlow, w.pl, w.load)
	if err := checkOutputs(van, exf); err != nil {
		t.Fatalf("real outputs rejected: %v", err)
	}

	bad := *exf
	bad.Outputs = slices.Clone(exf.Outputs)
	bad.Outputs[1] = slices.Clone(exf.Outputs[1])
	bad.Outputs[1][2]++
	wantFail(t, "changed token", checkOutputs(van, &bad), "request 1 token 2")

	bad.Outputs = exf.Outputs[:len(exf.Outputs)-1]
	wantFail(t, "missing request", checkOutputs(van, &bad), "requests")

	bad.Outputs = slices.Clone(exf.Outputs)
	bad.Outputs[0] = exf.Outputs[0][:1]
	wantFail(t, "short request", checkOutputs(van, &bad), "generated")
}

// tracedServe runs a tiny serve workload once with a registry attached and
// returns the report, so the checks see a real one.
func tracedServe(t *testing.T, name string) (*serving, *exflow.ServeReport) {
	t.Helper()
	w := tinyWorkload(t, name, 1).(*serving)
	o := w.opts
	o.Calibration = w.cal
	o.Metrics = obs.NewRegistry()
	rep, _, err := exflow.Serve(w.sys, o)
	if err != nil {
		t.Fatal(err)
	}
	return w, rep
}

func TestCheckServeFailsOnCorruptedAccounting(t *testing.T) {
	w, rep := tracedServe(t, "serve-paged-drift")
	decode := w.opts.DecodeTokens
	if err := checkServe(rep, decode); err != nil {
		t.Fatalf("real report rejected: %v", err)
	}

	bad := *rep
	bad.Phases = slices.Clone(rep.Phases)
	bad.Phases[1].Requests++
	wantFail(t, "phase count", checkServe(&bad, decode), "phase requests")

	bad = *rep
	bad.Tokens--
	wantFail(t, "tokens", checkServe(&bad, decode), "Tokens")

	bad = *rep
	bad.Requests++
	wantFail(t, "requests", checkServe(&bad, decode), "Requests")
}

func TestCheckRegistryFailsOnCorruptedCounters(t *testing.T) {
	for _, name := range []string{"serve-steady", "serve-paged-drift"} {
		_, rep := tracedServe(t, name)
		if err := checkRegistry(rep); err != nil {
			t.Fatalf("%s: real registry rejected: %v", name, err)
		}
		corrupt := func(counter string, delta float64) *exflow.ServeReport {
			bad := *rep
			snap := *rep.Metrics
			snap.Counters = maps.Clone(rep.Metrics.Counters)
			snap.Counters[counter] += delta
			bad.Metrics = &snap
			return &bad
		}
		wantFail(t, name+" stall", checkRegistry(corrupt("mem_stall_seconds", 1e-9)), "mem_stall_seconds")
		wantFail(t, name+" finished", checkRegistry(corrupt("serve_requests_finished_total", -1)), "serve_requests_finished_total")

		bad := *rep
		bad.Metrics = nil
		wantFail(t, name+" no snapshot", checkRegistry(&bad), "no metrics snapshot")
	}
	_, rep := tracedServe(t, "serve-paged-drift")
	if rep.MemStallSeconds == 0 {
		t.Error("the paged workload charged no memory stall, so the stall check compares zeros")
	}
}

func TestCheckSimEqualFailsOnAnyDifference(t *testing.T) {
	w := tinyWorkload(t, "serve-steady", 1)
	s, err := w.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSimEqual("same", s.sim, maps.Clone(s.sim)); err != nil {
		t.Fatalf("identical metrics rejected: %v", err)
	}
	bad := maps.Clone(s.sim)
	bad["sim_p99_s"] *= 1 + 1e-15
	wantFail(t, "last-bit change", checkSimEqual("run", s.sim, bad), "sim_p99_s")

	bad = maps.Clone(s.sim)
	delete(bad, "serve.iterations")
	wantFail(t, "missing metric", checkSimEqual("run", s.sim, bad), "serve.iterations")

	bad = maps.Clone(s.sim)
	bad["extra"] = 1
	wantFail(t, "extra metric", checkSimEqual("run", s.sim, bad), "simulated metrics")
}

func TestCheckSimRefFailsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	sim := map[string]float64{"sim_p99_s": 0.0377, "serve.requests": 14365}
	if err := checkSimRef(dir, "serve-steady", 3, sim); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkSimRef(dir, "serve-steady", 3, maps.Clone(sim)); err != nil {
		t.Fatalf("identical second run rejected: %v", err)
	}
	if err := checkSimRef(dir, "serve-steady", 4, map[string]float64{"sim_p99_s": 1}); err != nil {
		t.Fatalf("another seed must start its own reference: %v", err)
	}
	bad := maps.Clone(sim)
	bad["sim_p99_s"] = 0.0378
	wantFail(t, "changed run", checkSimRef(dir, "serve-steady", 3, bad), "sim_p99_s")

	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 reference files, got %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkSimRef(dir, "serve-steady", 3, sim) == nil && checkSimRef(dir, "serve-steady", 4, sim) == nil {
		t.Error("a corrupted reference file was accepted")
	}
}

// TestRegimeLimitsFailOutsideTheRegime feeds each workload's stated limits
// a run in another regime: the steady fleet has no memory stall or
// migrations, and the paged fleet has both.
func TestRegimeLimitsFailOutsideTheRegime(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	steady := tinyWorkload(t, "serve-steady", 1)
	paged := tinyWorkload(t, "serve-paged-drift", 1)
	ss, err := steady.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := paged.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pagedSpec, _ := sp.workload("serve-paged-drift")
	steadySpec, _ := sp.workload("serve-steady")
	wantFail(t, "steady run under paged limits", checkLimits(ss.sim, pagedSpec.Limits), "below its limit")
	wantFail(t, "paged run under steady limits", checkLimits(ps.sim, steadySpec.Limits), "above its limit")

	offlineSpec, _ := sp.workload("offline-paper")
	wantFail(t, "serve run under offline limits", checkLimits(ss.sim, offlineSpec.Limits), "reports no engine.speedup")

	sim := map[string]float64{"sim_p99_s": 0.05, "serve.drain_s": 0.05}
	limits := map[string]float64{"sim_p99_s_max": 0.1, "serve.drain_s_max": 0.1}
	if err := checkLimits(sim, limits); err != nil {
		t.Fatalf("in-regime run rejected: %v", err)
	}
	sim["serve.drain_s"] = 0.2
	wantFail(t, "backlog", checkLimits(sim, limits), "serve.drain_s")
	wantFail(t, "malformed limit", checkLimits(sim, map[string]float64{"sim_p99_s": 1}), "neither")
}
