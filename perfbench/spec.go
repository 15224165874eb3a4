package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// metricsJSON is the benchmark's specification: workloads with their fixed
// rates and regime limits, every metric with its unit, clock and (for
// per-layer metrics) the end-to-end metric and workload it should move, and
// the modules left unmeasured. BENCHMARK.json mirrors its names, units,
// bounds and reasons; spec_test.go keeps the two in step.
//
//go:embed metrics.json
var metricsJSON []byte

// spec holds the parts of metrics.json the program and its tests read; the
// rest (workload details, metric descriptions, unmeasured modules) is
// documentation.
type spec struct {
	Clocks    map[string]string `json:"clocks"`
	Workloads []workloadSpec    `json:"workloads"`
	EndToEnd  []metricSpec      `json:"end_to_end"`
	PerLayer  []metricSpec      `json:"per_layer"`
}

type workloadSpec struct {
	Name string  `json:"name"`
	Why  string  `json:"why"`
	Rate float64 `json:"rate_rps"`
	// Limits bound simulated metrics: "<metric>_max" and "<metric>_min"
	// state the regime the workload claims to run in.
	Limits map[string]float64 `json:"limits"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Clock  string   `json:"clock"`
	Moves  string   `json:"moves,omitempty"`
	On     []string `json:"on,omitempty"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(metricsJSON, &s); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// checkLimits enforces a workload's regime limits on its simulated metrics.
func checkLimits(sim map[string]float64, limits map[string]float64) error {
	keys := make([]string, 0, len(limits))
	for k := range limits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		limit := limits[k]
		name, isMax := strings.CutSuffix(k, "_max")
		if !isMax {
			var isMin bool
			if name, isMin = strings.CutSuffix(k, "_min"); !isMin {
				return fmt.Errorf("limit %q names neither a _max nor a _min", k)
			}
		}
		v, ok := sim[name]
		switch {
		case !ok:
			return fmt.Errorf("limit %q: workload reports no %s", k, name)
		case isMax && v > limit:
			return fmt.Errorf("regime: %s = %v above its limit %v", name, v, limit)
		case !isMax && v < limit:
			return fmt.Errorf("regime: %s = %v below its limit %v", name, v, limit)
		}
	}
	return nil
}
