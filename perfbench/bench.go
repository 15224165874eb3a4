package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/obs"
)

const (
	// setupReps is how many times a run repeats the set-up; setup_s and
	// the set-up spans are medians over them.
	setupReps = 5
	// minReps and minTracedReps are the fewest measured phases a run makes
	// (untraced, and untraced+traced pairs), however short --seconds is.
	minReps       = 3
	minTracedReps = 2
)

// result is what one benchmark run reports.
type result struct {
	metrics map[string]float64
	// wallS and speed are the median raw wall seconds of the measured phase
	// and the median reference seconds per wall second behind host_s.
	wallS, speed      float64
	sim               map[string]float64 // the first measured phase's simulated metrics
	requests          int                // latency sample size of one phase
	reps              int                // measured phases
	attempted, failed int
}

// hostCost is the host-side cost of one measured phase: ref and gcCPU in
// reference seconds (see clock.go), wall in raw wall seconds.
type hostCost struct {
	ref, wall, allocMB, gcCPU float64
	mallocs                   uint64
}

// runOnce runs the measured phase once, starting from a collected heap.
// A non-nil prof records a CPU profile of the phase into it.
func runOnce(w workload, clk *refClock, reg *obs.Registry, sp *spans, prof *cpuCounts) (*sample, hostCost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, hostCost{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	s, err := w.run(reg, sp)
	ref, wall := clk.since(t0)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, hostCost{}, err
	}
	if prof != nil {
		if err := prof.add(buf.Bytes()); err != nil {
			return nil, hostCost{}, err
		}
	}
	return s, hostCost{
		ref:     ref,
		wall:    wall,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcCPU:   (gc1 - gc0) * ref / wall,
		mallocs: m1.Mallocs - m0.Mallocs,
	}, nil
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure is the untraced run: it repeats the set-up setupReps times, then
// the measured phase until seconds have passed (at least minReps times),
// and reports the end-to-end metrics as medians, host times in reference
// seconds. Every phase's simulated metrics must equal the first's.
func measure(w workload, seconds float64, endToEnd []metricSpec) (*result, error) {
	clk := startRefClock()
	defer clk.close()
	var setup []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ref, _ := clk.since(t0)
		setup = append(setup, ref)
	}
	res := &result{}
	var first *sample
	var ref, wall, speed, alloc []float64
	for start := time.Now(); len(ref) < minReps || time.Since(start).Seconds() < seconds; {
		s, c, err := runOnce(w, clk, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = s
		} else if err := checkSimEqual("repeated phase", first.sim, s.sim); err != nil {
			return nil, err
		}
		ref = append(ref, c.ref)
		wall = append(wall, c.wall)
		speed = append(speed, c.ref/c.wall)
		alloc = append(alloc, c.allocMB)
		res.attempted += s.attempted
		res.failed += s.failed
	}
	res.sim, res.requests, res.reps = first.sim, first.requests, len(ref)
	res.wallS, res.speed = median(wall), median(speed)
	host := map[string]float64{
		"setup_s":       median(setup),
		"host_s":        median(ref),
		"host_alloc_mb": median(alloc),
	}
	var err error
	res.metrics, err = pick(endToEnd, host, first.sim)
	return res, err
}

// measureTraced is the traced run: host spans around every public call,
// a CPU profile and runtime/metrics over each traced phase, an attached
// obs.Registry, and the routing replay. Each traced phase is paired with an
// untraced one for the tracing overhead, and both must reproduce the first
// phase's simulated metrics exactly.
func measureTraced(w workload, seconds float64, perLayer []metricSpec) (*result, error) {
	clk := startRefClock()
	defer clk.close()
	sp := &spans{clk: clk, vals: map[string][]float64{}}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		if err := w.setup(sp, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res := &result{}
	var (
		first                    *sample
		prof                     cpuCounts
		overhead, gcCPU, mallocs []float64
	)
	for start := time.Now(); len(overhead) < minTracedReps || time.Since(start).Seconds() < seconds; {
		plain, pc, err := runOnce(w, clk, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		traced, tc, err := runOnce(w, clk, obs.NewRegistry(), sp, &prof)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = plain
		} else if err := checkSimEqual("repeated phase", first.sim, plain.sim); err != nil {
			return nil, err
		}
		if err := checkSimEqual("traced phase", first.sim, traced.sim); err != nil {
			return nil, err
		}
		overhead = append(overhead, tc.ref/pc.ref-1)
		gcCPU = append(gcCPU, tc.gcCPU)
		mallocs = append(mallocs, float64(tc.mallocs))
		res.attempted += plain.attempted + traced.attempted
		res.failed += plain.failed + traced.failed
	}
	res.sim, res.requests, res.reps = first.sim, first.requests, 2*len(overhead)

	m := map[string]float64{
		"runtime.gc_cpu_s":  median(gcCPU),
		"runtime.mallocs":   median(mallocs),
		"obs.overhead_frac": median(overhead),
	}
	for _, name := range []string{
		"moe.new_system_s", "synth.profile_s", "placement.solve_s", "serve.calibrate_s",
		"engine.vanilla_run_s", "engine.exflow_run_s", "serve.run_s", "placement.resolve_host_s",
	} {
		m[name] = median(sp.vals[name])
	}
	if run := m["serve.run_s"]; run > 0 {
		m["serve.iterations_per_host_s"] = float64(first.iterations) / run
	} else {
		m["serve.iterations_per_host_s"] = 0
	}
	for k, v := range prof.shares() {
		m[k] = v
	}
	layers, segs := w.routeStream(first)
	m["synth.route_ns"], m["synth.route_allocs"] = replayRoutes(clk, layers, segs)

	var err error
	res.metrics, err = pick(perLayer, m, first.sim)
	return res, err
}

// pick returns the named metrics: simulated ones from a phase's sim map (0
// where the workload lacks the layer), host ones from host.
func pick(specs []metricSpec, host, sim map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64, len(specs))
	for _, m := range specs {
		v, ok := host[m.Name]
		if m.Clock == "sim" {
			v, ok = sim[m.Name], true
		}
		if !ok {
			return nil, fmt.Errorf("metric %s is not measured", m.Name)
		}
		out[m.Name] = v
	}
	return out, nil
}

// replayRoutes calls synth.(*KernelRouter).Route directly over a token x
// layer stream, chaining each token's previous expert the way the serve
// loop and the engine do, and returns reference ns and heap allocations per
// call.
func replayRoutes(clk *refClock, layers int, segs []routeSegment) (nsPerCall, allocsPerCall float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	t0 := time.Now()
	for _, seg := range segs {
		for i := 0; i < seg.n; i++ {
			id := seg.id(i)
			prev := -1
			for j := 0; j < layers; j++ {
				prev = seg.router.Route(j, id, prev, nil)[0]
			}
			calls += layers
		}
	}
	elapsed, _ := clk.since(t0)
	runtime.ReadMemStats(&m1)
	if calls == 0 {
		return 0, 0
	}
	return elapsed * 1e9 / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
