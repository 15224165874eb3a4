package main

import (
	"fmt"
	"time"

	exflow "repro"
	"repro/internal/engine"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// systemSeed fixes the modeled checkpoint: routing kernel, model weights and
// placement solves. The workload seed passed to the benchmark drives only the
// inputs (evaluation tokens, arrival process), so a fixed arrival rate stays
// at the same fraction of capacity on every seed.
const systemSeed = 7

// serveTokenOrdinalBase mirrors the serve loop's token ordinal base, so the
// routing replay draws the same token ids a serve run does.
const serveTokenOrdinalBase = 1 << 22

// spans collects host-time spans by name, one value per timed call, in
// reference seconds of clk (see clock.go). A nil *spans times nothing and
// only runs the call.
type spans struct {
	clk  *refClock
	vals map[string][]float64
}

func (sp *spans) time(name string, f func()) {
	t0 := time.Now()
	f()
	if sp != nil {
		ref, _ := sp.clk.since(t0)
		sp.add(name, ref)
	}
}

func (sp *spans) add(name string, v float64) {
	if sp != nil {
		sp.vals[name] = append(sp.vals[name], v)
	}
}

// sample is the outcome of one measured phase.
type sample struct {
	// sim holds every simulated metric the workload reports, end-to-end
	// (sim_*) and per-layer; all of it is exact at a fixed seed.
	sim map[string]float64
	// requests is the latency sample size behind sim_p50_s and sim_p99_s.
	requests int
	// attempted and failed count the phase's operations: dispatches and
	// dropped dispatches offline, arrivals and unfinished or shed requests
	// when serving.
	attempted, failed int
	// iterations is the simulated decode-iteration count and
	// phaseRequests the requests per arrival phase (serve only).
	iterations    int
	phaseRequests []int
}

// routeSegment is a run of tokens routed by one router, the i-th token
// having id(i).
type routeSegment struct {
	router *synth.KernelRouter
	n      int
	id     func(i int) uint64
}

// workload is one benchmark workload, driven only through the public API.
type workload interface {
	// setup builds the system and performs the workload's set-up, timing
	// each public call into sp. traced adds the standalone profile and
	// solve calls a serve set-up makes inside CalibrateServe, so their
	// spans exist on every workload.
	setup(sp *spans, traced bool) error
	// run performs the measured phase once. A non-nil reg is attached to
	// the run as its metrics registry and its invariants are checked.
	run(reg *obs.Registry, sp *spans) (*sample, error)
	// routeStream is the token x layer stream the last run routed, for the
	// routing replay.
	routeStream(last *sample) (layers int, segs []routeSegment)
}

// newWorkload builds the named workload at the given input seed. tiny shrinks
// it to a shape small enough for unit tests; the regime limits do not apply
// to the tiny shape.
func newWorkload(ws workloadSpec, seed uint64, tiny bool) (workload, error) {
	switch ws.Name {
	case "offline-paper":
		w := &offline{
			sysOpts:       exflow.SystemOptions{Model: moe.GPTM(32), GPUs: 16, Seed: systemSeed, SolveWorkers: 1},
			profileTokens: 3000,
			load: exflow.Workload{
				RequestsPerGPU: 8, PromptLen: 16, GenerateTokens: 16,
				// Request r's tokens sit at offset + r*4096 + iter, so
				// seeds 1<<19 apart never share a token.
				EvalOffset: 1<<20 + int(seed%(1<<20))<<19,
			},
		}
		if tiny {
			w.sysOpts.Model.Layers, w.sysOpts.GPUs, w.profileTokens = 4, 4, 500
			w.load.RequestsPerGPU, w.load.PromptLen, w.load.GenerateTokens = 2, 4, 4
		}
		return w, nil
	case "serve-steady":
		cfg := moe.GPTM(32)
		cfg.Layers = 16
		w := &serving{
			sysOpts: exflow.SystemOptions{Model: cfg, GPUs: 16, Seed: systemSeed, DomainTilt: 8, SolveWorkers: 1},
			opts: exflow.ServeOptions{
				Replicas: 2, DecodeTokens: 32, ProfileTokens: 3000, SolveWorkers: 1, Seed: seed,
				Phases: []exflow.ServePhase{{Name: "steady", Duration: 6, Rate: ws.Rate}},
			},
			driftPhase: -1,
		}
		if tiny {
			w.sysOpts.Model.Layers, w.sysOpts.GPUs = 4, 4
			w.opts.Phases[0].Duration, w.opts.Phases[0].Rate = 0.5, 200
		}
		return w, nil
	case "serve-paged-drift":
		cfg := moe.GPTM(32)
		cfg.Layers = 12
		phase := func(name string, ds *synth.DatasetProfile) exflow.ServePhase {
			return exflow.ServePhase{Name: name, Duration: 40, Rate: ws.Rate, Dataset: ds}
		}
		w := &serving{
			sysOpts: exflow.SystemOptions{Model: cfg, GPUs: 8, Seed: systemSeed, DomainTilt: 8, SolveWorkers: 1},
			opts: exflow.ServeOptions{
				Replicas: 2, DecodeTokens: 32, ProfileTokens: 3000, SolveWorkers: 1, Seed: seed,
				Oversubscription: 2, CachePolicy: "affinity",
				Adaptive: true, MemoryAware: true, ResidencyModel: "che", SolveSeconds: 0.5,
				Phases: []exflow.ServePhase{phase("pile", nil), phase("viral", exflow.ViralDataset()), phase("pile-again", nil)},
			},
			driftPhase: 1,
		}
		if tiny {
			w.sysOpts.Model.Layers, w.sysOpts.GPUs = 4, 4
			for i := range w.opts.Phases {
				w.opts.Phases[i].Duration, w.opts.Phases[i].Rate = 2, 20
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("no workload named %q", ws.Name)
}

// offline is the paper's comparison: vanilla engine on the contiguous
// baseline against ExFlow on the staged affinity placement.
type offline struct {
	sysOpts       exflow.SystemOptions
	profileTokens int
	load          exflow.Workload

	sys *exflow.System
	pl  *placement.Placement
}

func (w *offline) setup(sp *spans, _ bool) error {
	sp.time("moe.new_system_s", func() { w.sys = exflow.NewSystem(w.sysOpts) })
	var tr *trace.Trace
	sp.time("synth.profile_s", func() { tr = w.sys.Profile(w.profileTokens) })
	sp.time("placement.solve_s", func() { w.pl = w.sys.SolvePlacement(tr) })
	return nil
}

func (w *offline) run(_ *obs.Registry, sp *spans) (*sample, error) {
	var van, exf *engine.Report
	sp.time("engine.vanilla_run_s", func() { van = w.sys.Run(engine.Vanilla, w.sys.Baseline(), w.load) })
	sp.time("engine.exflow_run_s", func() { exf = w.sys.Run(engine.ExFlow, w.pl, w.load) })
	return offlineSample(van, exf)
}

// offlineSample checks the paper's no-accuracy-change property and reads
// the simulated metrics. The batch decodes in lockstep: every request
// arrives at 0 and finishes at the makespan, so the makespan is each
// request's latency.
func offlineSample(van, exf *engine.Report) (*sample, error) {
	if err := checkOutputs(van, exf); err != nil {
		return nil, err
	}
	if van.Throughput <= 0 || exf.Throughput <= 0 {
		return nil, fmt.Errorf("engine run decoded nothing (vanilla %v, exflow %v tokens/s)", van.Throughput, exf.Throughput)
	}
	dispatches := func(r *engine.Report) int {
		return r.DispatchSameGPU + r.DispatchSameNode + r.DispatchCrossNode + r.DroppedJobs
	}
	return &sample{
		requests:  len(exf.Outputs),
		attempted: dispatches(van) + dispatches(exf),
		failed:    van.DroppedJobs + exf.DroppedJobs,
		sim: map[string]float64{
			"sim_tokens_per_s":       exf.Throughput,
			"sim_p50_s":              exf.SimSeconds,
			"sim_p99_s":              exf.SimSeconds,
			"engine.speedup":         exf.Throughput / van.Throughput,
			"engine.alltoall_share":  exf.AlltoallShare(),
			"engine.alltoall_bytes":  float64(exf.AlltoallBytes),
			"engine.frac_same_gpu":   exf.FracDispatchLocal(),
			"engine.frac_intra_node": exf.FracDispatchIntraNode(),
		},
	}, nil
}

func (w *offline) routeStream(*sample) (int, []routeSegment) {
	ds := w.sys.Dataset
	perReq := w.load.PromptLen + w.load.GenerateTokens
	return w.sys.Model.Cfg.Layers, []routeSegment{{
		router: synth.NewKernelRouter(w.sys.Kernel, ds, w.sys.Model.Cfg.TopK),
		n:      w.load.RequestsPerGPU * w.sys.Topo.TotalGPUs() * perReq,
		id: func(i int) uint64 {
			return ds.TokenID(uint64(w.load.EvalOffset + i/perReq*4096 + i%perReq))
		},
	}}
}

// serving calibrates once and serves a fixed-rate traffic program.
type serving struct {
	sysOpts exflow.SystemOptions
	opts    exflow.ServeOptions
	// driftPhase indexes the phase whose P99 is serve.drift_phase_p99_s
	// (-1: none).
	driftPhase int

	sys *exflow.System
	cal *exflow.ServeCalibration
}

func (w *serving) setup(sp *spans, traced bool) error {
	sp.time("moe.new_system_s", func() { w.sys = exflow.NewSystem(w.sysOpts) })
	if traced {
		var tr *trace.Trace
		sp.time("synth.profile_s", func() { tr = w.sys.Profile(w.opts.ProfileTokens) })
		sp.time("placement.solve_s", func() { w.sys.SolvePlacement(tr) })
	}
	var err error
	sp.time("serve.calibrate_s", func() { w.cal, err = exflow.CalibrateServe(w.sys, w.opts) })
	return err
}

func (w *serving) run(reg *obs.Registry, sp *spans) (*sample, error) {
	o := w.opts
	o.Calibration = w.cal
	o.Metrics = reg
	var (
		rep *exflow.ServeReport
		met *exflow.ServeMetrics
		err error
	)
	sp.time("serve.run_s", func() { rep, met, err = exflow.Serve(w.sys, o) })
	if err != nil {
		return nil, err
	}
	if err := checkServe(rep, o.DecodeTokens); err != nil {
		return nil, err
	}
	s := servingSample(rep, met, o.Phases, w.driftPhase)
	if reg != nil {
		if err := checkRegistry(rep); err != nil {
			return nil, err
		}
		c := rep.Metrics.Counters
		s.failed += int(c["serve_requests_total"] - c["serve_requests_finished_total"])
		if sp != nil {
			// The registry times the solves in wall seconds during the
			// phase just ended; the clock's latest samples scale them.
			now := time.Now()
			sp.add("placement.resolve_host_s", rep.Metrics.Histograms["solver_wall_seconds"].Sum*sp.clk.scale(now, now))
		}
	}
	return s, nil
}

// servingSample reads the simulated metrics of a serve run. Metrics of a
// layer the workload does not use (memory tier, controller) read 0.
func servingSample(rep *exflow.ServeReport, met *exflow.ServeMetrics, phases []exflow.ServePhase, driftPhase int) *sample {
	end := 0.0
	for _, p := range phases {
		end += p.Duration
	}
	pause := 0.0
	for _, m := range rep.Migrations {
		pause += m.Seconds
	}
	s := &sample{
		requests:   rep.Requests,
		attempted:  rep.Requests,
		iterations: rep.Iterations,
		sim: map[string]float64{
			"sim_tokens_per_s":               rep.Overall.Throughput,
			"sim_p50_s":                      rep.Overall.P50,
			"sim_p99_s":                      rep.Overall.P99,
			"serve.drain_s":                  rep.Makespan - end,
			"serve.capacity_rps":             met.RequestCapacity,
			"serve.frac_cross":               met.FracCross,
			"serve.iterations":               float64(rep.Iterations),
			"serve.mean_batch":               rep.MeanBatch,
			"serve.requests":                 float64(rep.Requests),
			"serve.mem_stall_s_per_token":    rep.MemStallSeconds / float64(rep.Tokens),
			"controller.solves":              float64(rep.Solves),
			"controller.discarded_solves":    float64(rep.DiscardedSolves),
			"controller.migrations":          float64(len(rep.Migrations)),
			"controller.pause_s":             pause,
			"serve.drift_phase_p99_s":        0,
			"expertmem.hit_rate":             0,
			"expertmem.prefetch_useful_frac": 0,
			"expertmem.bytes_fetched":        0,
		},
	}
	if driftPhase >= 0 {
		s.sim["serve.drift_phase_p99_s"] = rep.Phases[driftPhase].P99
	}
	if m := rep.ExpertMem; m != nil {
		s.sim["expertmem.hit_rate"] = m.HitRate()
		s.sim["expertmem.bytes_fetched"] = float64(m.BytesFetched)
		if m.Prefetches > 0 {
			s.sim["expertmem.prefetch_useful_frac"] = float64(m.PrefetchHits) / float64(m.Prefetches)
		}
	}
	for _, p := range rep.Phases {
		s.phaseRequests = append(s.phaseRequests, p.Requests)
	}
	return s
}

func (w *serving) routeStream(last *sample) (int, []routeSegment) {
	var segs []routeSegment
	base := serveTokenOrdinalBase
	for i, p := range w.opts.Phases {
		ds := p.Dataset
		if ds == nil {
			ds = w.sys.Dataset
		}
		first := base
		n := last.phaseRequests[i] * w.opts.DecodeTokens
		segs = append(segs, routeSegment{
			router: synth.NewKernelRouter(w.sys.Kernel, ds, w.sys.Model.Cfg.TopK),
			n:      n,
			id:     func(k int) uint64 { return ds.TokenID(uint64(first + k)) },
		})
		base += n
	}
	return w.sys.Model.Cfg.Layers, segs
}
