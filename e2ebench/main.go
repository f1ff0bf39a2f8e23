// Command e2ebench is the repository's end-to-end benchmark. It runs one
// paper-scale workload (sim.Run, async.Run, or the memoized sweep service)
// built from a workload seed, checks its outputs, and prints its metrics:
// the end-to-end metrics from untraced runs (--trace 0), or the per-layer
// metrics from a separate traced run (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"setup_s": {"value": 0.05, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash e2ebench/run.sh --workload dpsgd-256 --seed 1 --seconds 24 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md), or all: every workload, untraced then traced")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed builds the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long the measured loop runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
		outDir  = flag.String("out", ".bench_build/e2ebench", "directory for scratch stores and the result files")
		spec    = flag.Bool("spec", false, "print the BENCHMARK.json this benchmark implements and exit")
	)
	flag.Parse()
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *name == "all" {
		// Every workload, end-to-end then per-layer, in one process.
		failed := 0
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				rep, err := invoke(w.name, w.setup, *seed, trace, window, *outDir)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				failed += rep.failed
			}
		}
		if failed > 0 {
			fatal(fmt.Errorf("%d checks failed", failed))
		}
		return
	}
	setup := lookup(*name)
	if setup == nil {
		fatal(fmt.Errorf("unknown workload %q (want all or one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if _, err := invoke(*name, setup, *seed, *trace, window, *outDir); err != nil {
		fatal(err)
	}
}

// invoke measures one workload in one mode and prints its metrics, with
// the JSON result line last.
func invoke(name string, setup func(uint64, string) (bench, error), seed uint64, trace int, window time.Duration, outDir string) (*report, error) {
	printHeader(name, seed, trace)
	scratch := filepath.Join(outDir, "scratch", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(scratch)
	var rep *report
	var err error
	if trace == 0 {
		rep, err = measure(setup, seed, window, scratch)
	} else {
		rep, err = measureTraced(setup, seed, window, scratch, 0)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.write(os.Stdout, outDir, name, seed, trace)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

func lookup(name string) func(uint64, string) (bench, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printHeader records what the numbers were measured on. A build without
// a VCS stamp (a source tree outside git) or with uncommitted edits
// cannot be tied to one commit, so the header flags it.
func printHeader(name string, seed uint64, trace int) {
	rev, modified := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	flagNote := ""
	switch {
	case rev == "":
		flagNote = " [revision empty: build carries no VCS stamp]"
	case modified:
		rev += "+dirty"
		flagNote = " [revision dirty: uncommitted edits]"
	}
	fmt.Printf("# e2ebench workload=%s seed=%d trace=%d GOMAXPROCS=%d nproc=%d go=%s revision=%q%s\n",
		name, seed, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rev, flagNote)
}

// report is one invocation's outcome: the check counters and the metrics
// it prints.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	specs     []metricSpec
	spans     []spanRow
	// walls are the measured calls' wall times in seconds, saved with the
	// result so the sample count and spread behind each median are known.
	walls []float64
	// hostSpeeds are the untraced runs' host speeds (share of nominal),
	// saved beside the walls so a noisy run can be told from a slow one.
	hostSpeeds []float64
	// tracedWall is the median wall time (s) of a traced invocation's
	// traced runs: the self-test's end-to-end reading, not a printed metric.
	tracedWall float64
}

// check records one output check's verdict; a failing check is an
// operation failed and is printed to standard error.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
	}
}

// setupRuns builds the workload several times and reports the median
// set-up time in reference seconds (see speed.go): at least three
// set-ups, and more while they are cheap, with one calibration before and
// one after them all. The last instance is returned ready to run.
func setupRuns(setup func(uint64, string) (bench, error), seed uint64, scratch string, cal *calibrator) (bench, float64, error) {
	var times []float64
	var b bench
	var all stretch
	all.before = cal.measure()
	for i := 0; len(times) < 3 || (all.wall < 300*time.Millisecond && len(times) < 200); i++ {
		start := time.Now()
		nb, err := setup(seed, filepath.Join(scratch, fmt.Sprint(i)))
		if err == nil {
			err = nb.fresh()
		}
		d := time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		all.wall += d
		times = append(times, d.Seconds())
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		b = nb
	}
	all.after = cal.measure()
	raw := median(times)
	fmt.Printf("# setup_s over %d set-ups: median %.6g wall s, host speed %.3g of nominal\n", len(times), raw, all.hostSpeed())
	return b, raw * all.hostSpeed(), nil
}

// sample is one measured call.
type sample struct {
	out       outcome
	wall      time.Duration
	allocB    float64
	liveHeapB float64
}

// runOnce makes one call: fresh per-run state (not timed), the timed call,
// the bytes it allocated, and the heap still live after a forced GC with
// the result held.
func runOnce(b bench, tr *tracer) (sample, error) {
	if err := b.fresh(); err != nil {
		return sample{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := b.run(tr)
	wall := time.Since(start)
	if err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(out.held)
	return sample{
		out: out, wall: wall,
		allocB:    float64(after.TotalAlloc - before.TotalAlloc),
		liveHeapB: float64(live.HeapAlloc),
	}, nil
}

// checkRun counts a run's operations and compares its digest with the
// invocation's first run: the same seed must give the same outputs.
func (r *report) checkRun(s sample, ref, what string) {
	r.attempted += s.out.ops
	r.check(s.out.digest == ref, "%s digest %s differs from the first run's %s", what, s.out.digest, ref)
	for _, f := range s.out.failures {
		r.check(false, "%s: %s", what, f)
	}
}

// measure is an untraced invocation: set-up timing, one warm-up run that
// fixes the reference digest, then runs until the window has passed (at
// least three), reporting medians. Each run is bracketed by calibrations
// and its throughput is counted in node-rounds per reference second (see
// speed.go).
func measure(setup func(uint64, string) (bench, error), seed uint64, window time.Duration, scratch string) (*report, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	b, setupS, err := setupRuns(setup, seed, scratch, cal)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := &report{specs: endToEnd}
	warm, err := runOnce(b, nil)
	if err != nil {
		return nil, err
	}
	rep.checkRun(warm, warm.out.digest, "warm-up run")
	var rates, rawRates, allocs, heaps, accs []float64
	start := time.Now()
	before := cal.measure()
	for len(rates) < 3 || time.Since(start) < window {
		s, err := runOnce(b, nil)
		if err != nil {
			rep.attempted++
			rep.check(false, "run: %v", err)
			if rep.failed > 3 {
				return nil, fmt.Errorf("runs keep failing: %w", err)
			}
			continue
		}
		run := stretch{wall: s.wall, before: before, after: cal.measure()}
		before = run.after
		rep.checkRun(s, warm.out.digest, "run")
		rep.walls = append(rep.walls, s.wall.Seconds())
		rep.hostSpeeds = append(rep.hostSpeeds, run.hostSpeed())
		rates = append(rates, s.out.nodeRounds/run.refSeconds())
		rawRates = append(rawRates, s.out.nodeRounds/s.wall.Seconds())
		allocs = append(allocs, s.allocB/1e6)
		heaps = append(heaps, s.liveHeapB/1e6)
		accs = append(accs, s.out.accPct)
	}
	fmt.Printf("# node_rounds_per_s over %d runs: median %.6g per reference s, %.6g per wall s; host speed %.3g of nominal\n",
		len(rates), median(rates), median(rawRates), median(rep.hostSpeeds))
	rep.metrics = map[string]float64{
		"setup_s":           setupS,
		"node_rounds_per_s": median(rates),
		"alloc_mb":          median(allocs),
		"live_heap_mb":      median(heaps),
		"final_acc_pct":     median(accs),
	}
	return rep, nil
}

// measureTraced is a traced invocation: after an untraced warm-up, traced
// and untraced runs alternate until the window has passed (at least one
// of each). The traced runs feed the per-layer metrics and must match the
// untraced digest, which shows the wrappers are read-only; their event
// streams must pass the energy auditor. delay is injected into every
// wrapped transport Send (the attribution self-test).
func measureTraced(setup func(uint64, string) (bench, error), seed uint64, window time.Duration, scratch string, delay time.Duration) (*report, error) {
	b, err := setup(seed, filepath.Join(scratch, "0"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	rep := &report{specs: perLayer}
	warm, err := runOnce(b, nil)
	if err != nil {
		return nil, err
	}
	rep.checkRun(warm, warm.out.digest, "warm-up run")
	k, err := newKernelTimer(seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.delay = delay
	var traced, untraced, untracedAlloc []float64
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < window {
		t, err := runOnce(b, tr)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.checkRun(t, warm.out.digest, "traced run")
		traced = append(traced, t.wall.Seconds())
		rep.walls = append(rep.walls, t.wall.Seconds())
		u, err := runOnce(b, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced run: %w", err)
		}
		rep.checkRun(u, warm.out.digest, "untraced run")
		untraced = append(untraced, u.wall.Seconds())
		untracedAlloc = append(untracedAlloc, u.allocB)
		k.trials(3)
	}
	for _, v := range tr.tot.violations {
		rep.check(false, "audit: %s", v)
	}
	var g *graph.Graph
	if sb, ok := b.(*syncBench); ok {
		g = sb.cfg.Graph
	}
	rep.metrics = layerMetrics(tr, k, g, median(untraced)*1e9, median(untracedAlloc))
	rep.metrics["obs.overhead_frac"] = median(traced)/median(untraced) - 1
	rep.spans = tr.spans.rowsOut(tr.labels)
	rep.tracedWall = median(traced)
	return rep, nil
}

// write prints every metric by name with its unit, saves the result (and
// the traced run's span table) under outDir, and prints the JSON line
// last.
func (r *report) write(w *os.File, outDir, name string, seed uint64, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range r.specs {
		v := r.metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite (%v)", s.Name, v)
			v = 0
		}
		metrics[s.Name] = value{v, s.Unit}
		fmt.Fprintf(w, "%-28s %16.6g %-8s (%s is better)\n", s.Name, v, s.Unit, s.Better)
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	saved, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Trace    int       `json:"trace"`
		Result   any       `json:"result"`
		WallsS   []float64 `json:"walls_s"`
		Speeds   []float64 `json:"host_speeds,omitempty"`
		Spans    []spanRow `json:"spans,omitempty"`
	}{name, seed, trace, json.RawMessage(out), r.walls, r.hostSpeeds, r.spans}, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(file, saved, 0o644); err != nil {
		return err
	}
	sorted := append([]float64(nil), r.walls...)
	sort.Float64s(sorted)
	if n := len(sorted); n > 0 {
		fmt.Fprintf(w, "# %d measured calls, wall min %.4gs median %.4gs max %.4gs; saved %s\n",
			n, sorted[0], median(sorted), sorted[n-1], file)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// runSeconds is how long one invocation measures, as BENCHMARK.json
// declares it.
const runSeconds = 24

// writeSpec prints the BENCHMARK.json the benchmark implements.
func writeSpec(w *os.File) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workload
	for _, x := range workloads {
		ws = append(ws, workload{x.name, x.why})
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, s := range perLayer {
		layers = append(layers, layer{s.Name, s.Unit, s.Better})
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{[]string{"bash", "e2ebench/run.sh"}, []string{"e2ebench"}, runSeconds, ws, endToEnd, layers}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
