package main

import (
	"fmt"
	"sort"

	exflow "repro"
	"repro/internal/engine"
)

// checkOutputs pins the paper's no-accuracy-change property: placement and
// mode change where tokens are computed, never what is generated.
func checkOutputs(van, exf *engine.Report) error {
	if len(van.Outputs) != len(exf.Outputs) {
		return fmt.Errorf("outputs: vanilla has %d requests, exflow %d", len(van.Outputs), len(exf.Outputs))
	}
	for r := range van.Outputs {
		a, b := van.Outputs[r], exf.Outputs[r]
		if len(a) != len(b) {
			return fmt.Errorf("outputs: request %d generated %d tokens under vanilla, %d under exflow", r, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("outputs: request %d token %d is %d under vanilla, %d under exflow", r, i, a[i], b[i])
			}
		}
	}
	return nil
}

// checkServe checks a serve report's request accounting: the phases
// partition the requests and every request decoded its full length.
func checkServe(rep *exflow.ServeReport, decodeTokens int) error {
	sum := 0
	for _, p := range rep.Phases {
		sum += p.Requests
	}
	if sum != rep.Overall.Requests {
		return fmt.Errorf("serve: phase requests sum to %d, Overall.Requests is %d", sum, rep.Overall.Requests)
	}
	if rep.Requests != rep.Overall.Requests {
		return fmt.Errorf("serve: Requests %d differs from Overall.Requests %d", rep.Requests, rep.Overall.Requests)
	}
	if rep.Tokens != rep.Requests*decodeTokens {
		return fmt.Errorf("serve: Tokens %d != Requests %d x DecodeTokens %d", rep.Tokens, rep.Requests, decodeTokens)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("serve: no requests served")
	}
	return nil
}

// checkRegistry checks a traced serve run's registry against its report:
// the stall counter mirrors MemStallSeconds addition for addition, and
// every request that arrived finished.
func checkRegistry(rep *exflow.ServeReport) error {
	if rep.Metrics == nil {
		return fmt.Errorf("registry: traced run returned no metrics snapshot")
	}
	c := rep.Metrics.Counters
	if stall, ok := c["mem_stall_seconds"]; !ok || stall != rep.MemStallSeconds {
		return fmt.Errorf("registry: mem_stall_seconds %v (present %v) != report MemStallSeconds %v", stall, ok, rep.MemStallSeconds)
	}
	total, ok1 := c["serve_requests_total"]
	done, ok2 := c["serve_requests_finished_total"]
	if !ok1 || !ok2 || total != done {
		return fmt.Errorf("registry: serve_requests_finished_total %v != serve_requests_total %v", done, total)
	}
	return nil
}

// checkSimEqual requires two runs' simulated metrics to match exactly: the
// simulation is deterministic at a fixed seed, and observability may not
// change it.
func checkSimEqual(what string, want, got map[string]float64) error {
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Errorf("%s: %s = %v, first run had %v", what, k, g, want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d simulated metrics, first run had %d", what, len(got), len(want))
	}
	return nil
}
