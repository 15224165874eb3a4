package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

var workloadNames = []string{"offline-paper", "serve-steady", "serve-paged-drift"}

// TestTinyWorkloadsRepeat runs each workload at a tiny scale twice, untraced
// and traced, and requires the same metric names and identical simulated
// metrics every time.
func TestTinyWorkloadsRepeat(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ws, err := sp.workload(name)
			if err != nil {
				t.Fatal(err)
			}
			var runs []*result
			for i := 0; i < 2; i++ {
				w, err := newWorkload(ws, 5, true)
				if err != nil {
					t.Fatal(err)
				}
				res, err := measure(w, 0, sp.EndToEnd)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, res)
			}
			w, err := newWorkload(ws, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := measureTraced(w, 0, sp.PerLayer)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range runs {
				if got, want := slices.Sorted(maps.Keys(res.metrics)), specNames(sp.EndToEnd); !slices.Equal(got, want) {
					t.Errorf("run %d reports %v, want %v", i, got, want)
				}
				if err := checkSimEqual("second run", runs[0].sim, res.sim); err != nil {
					t.Error(err)
				}
				if res.attempted < 1 || res.failed != 0 || res.reps < minReps {
					t.Errorf("run %d: attempted %d failed %d over %d phases", i, res.attempted, res.failed, res.reps)
				}
			}
			if got, want := slices.Sorted(maps.Keys(traced.metrics)), specNames(sp.PerLayer); !slices.Equal(got, want) {
				t.Errorf("traced run reports %v, want %v", got, want)
			}
			if err := checkSimEqual("traced run", runs[0].sim, traced.sim); err != nil {
				t.Error(err)
			}
		})
	}
}

func specNames(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

// TestCPUSharesAttributeFrames profiles a loop of routing calls and checks
// that the samples land on synth and on no other layer.
func TestCPUSharesAttributeFrames(t *testing.T) {
	k := synth.NewKernel(synth.KernelParams{Seed: 1, Layers: 8, Experts: 32, Strength: 0.85})
	router := synth.NewKernelRouter(k, synth.Pile(), 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for id := uint64(0); id < 1000; id++ {
			prev := -1
			for j := 0; j < 8; j++ {
				prev = router.Route(j, id, prev, nil)[0]
			}
		}
	}
	pprof.StopCPUProfile()
	var c cpuCounts
	if err := c.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total < 5 {
		t.Skipf("only %d samples", c.total)
	}
	sh := c.shares()
	// Not "most samples": under -race much of the time is spent in the race
	// runtime, whose frames need not unwind into the Go caller.
	if sh["synth.cpu_share"] == 0 {
		t.Errorf("no synth samples among %d", c.total)
	}
	for _, l := range []string{"engine.cpu_share", "tensor.cpu_share", "expertmem.cpu_share", "serve.stall_timeline_cpu_share"} {
		if sh[l] != 0 {
			t.Errorf("%s = %v in a routing-only loop", l, sh[l])
		}
	}
	if err := c.add([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "serve-steady", "--trace", "2"},
		{"--workload", "serve-steady", "--bogus"},
		{"--workload", "serve-steady", "extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// TestResultLineShape checks the last output line against the result
// contract: exactly correct, attempted, failed and metrics.
func TestResultLineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size workload")
	}
	var out bytes.Buffer
	if err := run([]string{"--workload", "serve-paged-drift", "--seconds", "0", "--seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(res)); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", got)
	}
	if !strings.HasPrefix(lines[0], "record ") || !strings.Contains(lines[0], `"gomaxprocs":1`) || !strings.Contains(lines[0], `"rate_rps":74`) {
		t.Errorf("first line does not record the host shape and inputs: %s", lines[0])
	}
}
