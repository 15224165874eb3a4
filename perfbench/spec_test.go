package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the repository
// root publishes, in step with metrics.json, which the program runs on.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}

	type named struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(b.Paths, []string{"perfbench"}) || !slices.Equal(b.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("command %v / paths %v do not run this directory", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Workloads) != len(sp.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.json %d", len(b.Workloads), len(sp.Workloads))
	}
	for i, w := range sp.Workloads {
		if b.Workloads[i] != (named{Name: w.Name, Why: w.Why}) {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.json %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		for k := range w.Limits {
			name := strings.TrimSuffix(strings.TrimSuffix(k, "_max"), "_min")
			if m, ok := findMetric(sp, name); !ok || m.Clock != "sim" {
				t.Errorf("workload %s: limit %s does not bound a simulated metric", w.Name, k)
			}
		}
	}

	if len(b.EndToEnd) != len(sp.EndToEnd) || len(b.PerLayer) != len(sp.PerLayer) {
		t.Fatalf("metric counts differ: BENCHMARK.json %d/%d, metrics.json %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(sp.EndToEnd), len(sp.PerLayer))
	}
	maxBound := 0.0
	for i, m := range sp.EndToEnd {
		if b.EndToEnd[i] != (named{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metrics.json %+v", i, b.EndToEnd[i], m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if (m.Clock == "sim") != strings.HasPrefix(m.Name, "sim_") {
			t.Errorf("%s: name must say its clock (%s)", m.Name, m.Clock)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if m, ok := findMetric(sp, "setup_s"); !ok || m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound {
		t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
	}
	workloads := map[string]bool{}
	for _, w := range sp.Workloads {
		workloads[w.Name] = true
	}
	for i, m := range sp.PerLayer {
		if b.PerLayer[i] != (named{Name: m.Name, Unit: m.Unit, Better: m.Better}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.json %+v", i, b.PerLayer[i], m)
		}
		if e, ok := findMetric(sp, m.Moves); !ok || e.Bound == 0 {
			t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, m.Moves)
		}
		if len(m.On) == 0 {
			t.Errorf("%s names no workload it should move", m.Name)
		}
		for _, w := range m.On {
			if !workloads[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		if _, ok := sp.Clocks[m.Clock]; !ok {
			t.Errorf("%s: unknown clock %q", m.Name, m.Clock)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

func findMetric(sp *spec, name string) (metricSpec, bool) {
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
