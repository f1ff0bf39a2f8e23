package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set for
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run. Work is counted in simulated node-rounds so all workloads
// share one throughput unit: N x T for a sync run, N x trace rounds for
// the async run, nodes x rounds of every grid cell a sweep serves.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"node_rounds_per_s", "1/s", "higher", 0.24},
	{"alloc_mb", "MB", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"final_acc_pct", "%", "higher", 0.24},
}

// perLayer are the traced run's layer metrics. A layer the workload does
// not exercise reports 0.
var perLayer = []metricSpec{
	{"sim.liveset_ns", "ns", "lower", 0},
	{"sim.rejoin_ns", "ns", "lower", 0},
	{"sim.train_ns", "ns", "lower", 0},
	{"sim.share_ns", "ns", "lower", 0},
	{"sim.aggregate_ns", "ns", "lower", 0},
	{"sim.battery_ns", "ns", "lower", 0},
	{"sim.eval_ns", "ns", "lower", 0},
	{"sim.share_alloc_b", "B", "lower", 0},
	{"sim.aggregate_alloc_b", "B", "lower", 0},
	{"sim.phase_frac", "ratio", "higher", 0},
	{"nn.trainbatch_ns", "ns", "lower", 0},
	{"nn.trainbatch_calls", "count", "higher", 0},
	{"nn.train_share", "ratio", "higher", 0},
	{"nn.eval_ns_per_sample", "ns", "lower", 0},
	{"tensor.gflops", "GFLOP/s", "higher", 0},
	{"transport.sends", "count", "lower", 0},
	{"transport.send_mb", "MB", "lower", 0},
	{"transport.send_ns", "ns", "lower", 0},
	{"transport.recv_wait_ns", "ns", "lower", 0},
	{"transport.dropped", "count", "lower", 0},
	{"graph.renormalize_us", "us", "lower", 0},
	{"harvest.endround_ns", "ns", "lower", 0},
	{"harvest.trytrain_ok_frac", "ratio", "higher", 0},
	{"harvest.brownouts", "count", "lower", 0},
	{"core.participate_ns", "ns", "lower", 0},
	{"core.participate_frac", "ratio", "higher", 0},
	{"checkpoint.restores", "count", "higher", 0},
	{"async.engine_ns_per_step", "ns", "lower", 0},
	{"async.alloc_b_per_step", "B", "lower", 0},
	{"async.gossips", "count", "higher", 0},
	{"async.dropped_gossips", "count", "lower", 0},
	{"async.trained_frac", "ratio", "higher", 0},
	{"sweep.get_us_p50", "us", "lower", 0},
	{"sweep.get_us_p99", "us", "lower", 0},
	{"sweep.put_us_p50", "us", "lower", 0},
	{"sweep.put_us_p99", "us", "lower", 0},
	{"sweep.hits", "count", "higher", 0},
	{"sweep.misses", "count", "lower", 0},
	{"sweep.shared", "count", "higher", 0},
	{"sweep.store_kb", "KB", "lower", 0},
	{"par.busy_frac", "ratio", "higher", 0},
	{"obs.overhead_frac", "ratio", "lower", 0},
}

var simPhases = []string{"liveset", "rejoin", "train", "share", "aggregate", "battery", "eval"}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileNs returns the q-quantile of durations in microseconds
// (nearest rank).
func quantileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}

// kernelTimer times Network.TrainBatch and Network.Accuracy directly, at
// the workloads' model and batch shape, outside any measured call. Trials
// are taken between the traced invocation's runs, so the estimates come
// from the same stretch of machine time as the runs they are set against.
type kernelTimer struct {
	net      *nn.Network
	xs, exs  []tensor.Vector
	ys, eys  []int
	tb, eval []float64
}

func newKernelTimer(seed uint64) (*kernelTimer, error) {
	train, test, err := dataset.Generate(dataset.SyntheticConfig{
		Classes: modelClasses, Dim: modelDim, Train: batchSize * 64, Test: 2 * evalSubsample, Noise: 2.5, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k := &kernelTimer{net: nn.LogisticRegression(modelDim, modelClasses, rng.Derive(seed, 0xbe7c4))}
	k.xs, k.ys = dataset.NewBatcher(train, rng.Derive(seed, 0xba7c4)).Next(batchSize)
	k.exs, k.eys = test.Inputs()[:evalSubsample], test.Labels()[:evalSubsample]
	return k, nil
}

// trials takes n timed trials of each kernel, each long enough to swamp
// the clock.
func (k *kernelTimer) trials(n int) {
	const calls, evals = 400, 10
	for t := 0; t < n; t++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			k.net.TrainBatch(k.xs, k.ys, learningRate)
		}
		k.tb = append(k.tb, float64(time.Since(start).Nanoseconds())/calls)
		start = time.Now()
		for i := 0; i < evals; i++ {
			k.net.Accuracy(k.exs, k.eys)
		}
		k.eval = append(k.eval, float64(time.Since(start).Nanoseconds())/(evals*evalSubsample))
	}
}

// trainBatchNs and evalNsPerSample are the medians over every trial.
func (k *kernelTimer) trainBatchNs() float64    { return median(k.tb) }
func (k *kernelTimer) evalNsPerSample() float64 { return median(k.eval) }

// gflops is the computed (not counted) rate of one TrainBatch.
func (k *kernelTimer) gflops() float64 {
	return trainBatchFlops(modelDim, modelClasses, batchSize) / k.trainBatchNs()
}

// trainBatchFlops is the computed floating-point work of one TrainBatch on
// a dense in->out layer: per sample 2·in·out each for the forward
// mat-vec, the weight-gradient outer product and the input gradient, plus
// ~8·out for bias, softmax and cross-entropy; then 2 flops per parameter
// for the SGD update.
func trainBatchFlops(in, out, batch int) float64 {
	params := in*out + out
	return float64(batch*(6*in*out+8*out) + 2*params)
}

// renormalizeUs times graph.RenormalizeLive on every recorded live mask
// that had a dead node (the rounds sim.Run renormalizes), mean per call.
func renormalizeUs(g *graph.Graph, masks [][]bool) float64 {
	var total time.Duration
	n := 0
	for _, m := range masks {
		dead := false
		for _, l := range m {
			dead = dead || !l
		}
		if !dead {
			continue
		}
		start := time.Now()
		graph.RenormalizeLive(g, m)
		total += time.Since(start)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total.Microseconds()) / float64(n)
}

// layerMetrics turns the traced runs' totals into the per-layer metrics.
// untracedNs and untracedAllocB are the medians of the interleaved
// untraced runs: the tracing overhead's base and the async engine's
// self-time base.
func layerMetrics(tr *tracer, k *kernelTimer, g *graph.Graph, untracedNs, untracedAllocB float64) map[string]float64 {
	tot := &tr.tot
	runs := float64(tot.runs)
	perRun := func(x float64) float64 { return x / runs }
	perNR := func(x float64) float64 {
		if tot.nodeRounds == 0 {
			return 0
		}
		return x / tot.nodeRounds
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	phaseSum := 0.0
	for _, ph := range simPhases {
		m["sim."+ph+"_ns"] = perNR(tot.phaseNs[ph])
		phaseSum += tot.phaseNs[ph]
	}
	m["sim.share_alloc_b"] = perNR(tot.shareAllocB)
	m["sim.aggregate_alloc_b"] = perNR(tot.aggAllocB)
	if phaseSum > 0 {
		m["sim.phase_frac"] = phaseSum / tot.wallNs
	}

	tbNs, evalNs := k.trainBatchNs(), k.evalNsPerSample()
	m["nn.trainbatch_ns"] = tbNs
	m["nn.trainbatch_calls"] = perRun(tot.trainCalls)
	m["nn.eval_ns_per_sample"] = evalNs
	m["tensor.gflops"] = k.gflops()
	switch {
	case tot.phaseNs["train"] > 0:
		// The train phase fans out over GOMAXPROCS workers; its worker
		// time is the wall time times the worker count.
		m["nn.train_share"] = tbNs * tot.trainCalls / (tot.phaseNs["train"] * float64(runtime.GOMAXPROCS(0)))
	case tot.steps > 0:
		m["nn.train_share"] = tbNs * tot.trainCalls / tot.wallNs
	}

	sends, sendNs := tr.spans.total(spanSend)
	_, recvNs := tr.spans.total(spanRecv)
	m["transport.sends"] = perRun(float64(sends))
	m["transport.send_mb"] = perRun(float64(tr.sentBytes.Load())) / 1e6
	m["transport.send_ns"] = ratio(float64(sendNs), float64(sends))
	m["transport.recv_wait_ns"] = perNR(float64(recvNs))
	m["transport.dropped"] = perRun(tot.dropped)

	if g != nil {
		m["graph.renormalize_us"] = renormalizeUs(g, tot.liveMasks)
	}

	tries, _ := tr.spans.total(spanTryTrain)
	_, endNs := tr.spans.total(spanEndRound)
	m["harvest.endround_ns"] = perNR(float64(endNs))
	m["harvest.trytrain_ok_frac"] = ratio(tot.tryTrainOK, float64(tries))
	m["harvest.brownouts"] = perRun(tot.brownouts)

	calls, partNs := tr.spans.total(spanParticipate)
	m["core.participate_ns"] = ratio(float64(partNs), float64(calls))
	m["core.participate_frac"] = ratio(tot.participateYes, float64(calls))
	m["checkpoint.restores"] = perRun(tot.restores)

	if tot.steps > 0 {
		steps := perRun(tot.steps)
		kernelNs := perRun(tot.trainCalls)*tbNs + perRun(tot.evalSamples)*evalNs
		m["async.engine_ns_per_step"] = (untracedNs - kernelNs) / steps
		m["async.alloc_b_per_step"] = untracedAllocB / steps
		m["async.gossips"] = perRun(tot.gossips)
		m["async.dropped_gossips"] = perRun(tot.droppedGossips)
		m["async.trained_frac"] = tot.trainedSteps / tot.steps
	}

	m["sweep.get_us_p50"] = quantileUs(tot.getNs, 0.50)
	m["sweep.get_us_p99"] = quantileUs(tot.getNs, 0.99)
	m["sweep.put_us_p50"] = quantileUs(tot.putNs, 0.50)
	m["sweep.put_us_p99"] = quantileUs(tot.putNs, 0.99)
	// A traced sweep run is four passes; the counts are per run.
	sweepRuns := runs / float64(len(sweepPassNames))
	if tot.hits+tot.misses+tot.shrd > 0 {
		m["sweep.hits"] = tot.hits / sweepRuns
		m["sweep.misses"] = tot.misses / sweepRuns
		m["sweep.shared"] = tot.shrd / sweepRuns
		m["sweep.store_kb"] = tot.storeBytes / 1e3
		m["par.busy_frac"] = ratio(tot.missCellNs, tot.poolNs)
	}

	for _, spec := range perLayer {
		if _, ok := m[spec.Name]; !ok {
			m[spec.Name] = 0
		}
	}
	return m
}
