package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvest"
)

// TestInjectedSendDelayIsAttributedToTransport is the attribution
// self-test: a slowdown injected into one layer (every Send through the
// benchmark's transport wrapper) on skiptrain-brownout-256 must show up in
// that layer's metric and in the sim phase that calls it, must lower the
// traced runs' throughput, and must leave the nn metrics where they were.
func TestInjectedSendDelayIsAttributedToTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs skiptrain-brownout-256 four times")
	}
	const delay = 10 * time.Microsecond
	base, err := measureTraced(newSkipTrainBrownout, 1, 0, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := measureTraced(newSkipTrainBrownout, 1, 0, t.TempDir(), delay)
	if err != nil {
		t.Fatal(err)
	}
	if base.failed != 0 || slow.failed != 0 {
		t.Fatalf("output checks failed: base %d, slowed %d", base.failed, slow.failed)
	}
	b, s := base.metrics, slow.metrics
	if s["nn.trainbatch_calls"] != b["nn.trainbatch_calls"] {
		t.Errorf("nn.trainbatch_calls moved: %v -> %v", b["nn.trainbatch_calls"], s["nn.trainbatch_calls"])
	}
	if raceEnabled {
		// The runs above still exercise every wrapper concurrently; the
		// detector's slowdown swamps the injected delay, so stop short of
		// the timing assertions.
		return
	}
	if got, want := s["transport.send_ns"], b["transport.send_ns"]+0.8*float64(delay); got < want {
		t.Errorf("transport.send_ns = %.0f with a %v delay, want >= %.0f (base %.0f)", got, delay, want, b["transport.send_ns"])
	}
	if s["sim.share_ns"] < 1.5*b["sim.share_ns"] {
		t.Errorf("sim.share_ns = %.0f with the delay, base %.0f: the slowdown is not attributed to the share phase",
			s["sim.share_ns"], b["sim.share_ns"])
	}
	// Every delivered Send spins for the delay on one of GOMAXPROCS
	// workers, so the run must take at least about sends x delay / workers
	// longer: lower node_rounds_per_s at the same work.
	want := 0.5 * s["transport.sends"] * delay.Seconds() / float64(runtime.GOMAXPROCS(0))
	if got := slow.tracedWall - base.tracedWall; got < want {
		t.Errorf("traced run took %.3fs longer with the delay (%.3fs -> %.3fs), want >= %.3fs",
			got, base.tracedWall, slow.tracedWall, want)
	}
	// The direct kernel timings are wall clock on a shared machine, where
	// the same call has been seen to run 1.6x slower from one second to
	// the next; a factor of two either way is "put" for them.
	for _, name := range []string{"nn.trainbatch_ns", "nn.eval_ns_per_sample"} {
		if r := s[name] / b[name]; r < 0.5 || r > 2 {
			t.Errorf("%s moved by %.2fx under a transport delay (%.0f -> %.0f)", name, r, b[name], s[name])
		}
	}
}

// TestPolicyWrapperKeepsMarkers checks the traced run's policy wrapper
// presents the same configuration contract as the policy it wraps.
func TestPolicyWrapperKeepsMarkers(t *testing.T) {
	prop, err := harvest.NewSoCProportional(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := harvest.NewHorizonPlan(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p                 core.Policy
		battery, forecast bool
	}{
		{core.AlwaysTrain{}, false, false},
		{prop, true, false},
		{plan, true, true},
	} {
		w := wrapPolicy(tc.p, &spans{}).outer
		_, battery := w.(core.BatteryDependent)
		_, forecast := w.(core.ForecastDependent)
		if battery != tc.battery || forecast != tc.forecast || w.Name() != tc.p.Name() {
			t.Errorf("%s: wrapper battery=%v forecast=%v name=%q, want %v %v %q",
				tc.p.Name(), battery, forecast, w.Name(), tc.battery, tc.forecast, tc.p.Name())
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program implements.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	f, err := os.CreateTemp(t.TempDir(), "spec")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSpec(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	generated, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated, &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with --spec:\n%s", generated)
	}
}
