// Command perfbench is the repository's benchmark. It runs one named
// workload through the public exflow API, checks the outputs, and prints
// every metric by name with its unit; the last line of standard output is
// the JSON result.
//
//	bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 the per-layer metrics of a traced run. metrics.json specifies
// the workloads, every metric, the clock it is measured on, and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
)

// gomaxprocs is fixed so host timings do not depend on the host's core
// count or on other load spreading the simulator across cores; it never
// exceeds the CPUs present.
const gomaxprocs = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name (see metrics.json)")
	seed := fl.Uint64("seed", 1, "input seed: evaluation tokens offline, arrival process when serving")
	seconds := fl.Float64("seconds", 25, "host seconds to repeat the measured phase for")
	traced := fl.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	simref := fl.String("simref", "", "directory keeping each (binary, workload, seed)'s first simulated metrics; later runs must match them exactly (empty: off)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	runtime.GOMAXPROCS(min(gomaxprocs, runtime.NumCPU()))

	sp, err := loadSpec()
	if err != nil {
		return err
	}
	ws, err := sp.workload(*name)
	if err != nil {
		return err
	}
	w, err := newWorkload(ws, *seed, false)
	if err != nil {
		return err
	}

	var res *result
	metricSpecs := sp.EndToEnd
	if *traced == 1 {
		metricSpecs = sp.PerLayer
		res, err = measureTraced(w, *seconds, sp.PerLayer)
	} else {
		res, err = measure(w, *seconds, sp.EndToEnd)
	}
	if err != nil {
		return err
	}
	if err := checkLimits(res.sim, ws.Limits); err != nil {
		return err
	}
	if *simref != "" {
		if err := checkSimRef(*simref, ws.Name, *seed, res.sim); err != nil {
			return err
		}
	}

	host := map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	if res.wallS > 0 {
		// The raw wall time behind host_s and the speed that scaled it.
		host["phase_wall_s"], host["ref_s_per_wall_s"] = res.wallS, res.speed
	}
	record := map[string]any{
		"host": host,
		"inputs": map[string]any{
			"workload": ws.Name, "seed": *seed, "rate_rps": ws.Rate,
			"seconds": *seconds, "trace": *traced, "measured_phases": res.reps, "setup_reps": setupReps,
		},
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", line)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range metricSpecs {
		v := res.metrics[m.Name]
		out.Metrics[m.Name] = value{v, m.Unit}
		note := ""
		if m.Name == "sim_p50_s" || m.Name == "sim_p99_s" {
			note = fmt.Sprintf(" (n=%d requests)", res.requests)
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %-6s [%s]%s\n", m.Name, v, m.Unit, m.Clock, note)
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// checkSimRef requires every run of this binary at one (workload, seed) to
// reproduce the simulated metrics of the first such run. The reference is
// keyed by the executable's hash, so a rebuilt program starts afresh.
func checkSimRef(dir, workload string, seed uint64, sim map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("simref: %w", err)
	}
	blob, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("simref: %w", err)
	}
	sum := sha256.Sum256(blob)
	path := filepath.Join(dir, hex.EncodeToString(sum[:8]), fmt.Sprintf("%s-%d.json", workload, seed))
	ref, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return writeAtomic(path, sim)
	}
	if err != nil {
		return fmt.Errorf("simref: %w", err)
	}
	var want map[string]float64
	if err := json.Unmarshal(ref, &want); err != nil {
		return fmt.Errorf("simref %s: %w", path, err)
	}
	return checkSimEqual("run at the same seed", want, sim)
}

func writeAtomic(path string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("simref: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".simref-*")
	if err != nil {
		return fmt.Errorf("simref: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("simref: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simref: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}
