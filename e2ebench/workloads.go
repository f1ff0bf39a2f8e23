package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/async"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harvest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// Paper-scale run shape shared by the sync and async workloads: the
// paper's 256 nodes over 96 rounds of the CIFAR-like stand-in, trained
// with logistic regression at batch 16 x 8 local steps.
const (
	paperNodes    = 256
	paperRounds   = 96
	modelDim      = 32
	modelClasses  = 10
	batchSize     = 16
	localSteps    = 8
	learningRate  = 0.2
	evalEvery     = 12
	evalSubsample = 320
)

// Sweep cell scale: small cells, as the CI sweep smoke uses, so keying,
// store I/O and pool scheduling are a visible share of a grid.
const (
	sweepNodes   = 12
	sweepRounds  = 8
	sweepWorkers = 2
)

// workloads lists every workload in the order the doc describes them.
// Each entry is the single constructor of its workload: everything the
// measured call consumes is built there from the seed.
var workloads = []struct {
	name, why string
	setup     func(seed uint64, scratch string) (bench, error)
}{
	{"dpsgd-256", "paper baseline trains every round: the training kernel dominates, so nn and tensor gains show here first", newDPSGD},
	{"skiptrain-brownout-256", "sync-heavy SkipTrain under brown-outs: share, aggregate, transport, renormalize, harvest and rejoin do real work", newSkipTrainBrownout},
	{"async-brownout-256", "event-driven engine: the event heap, virtual-time battery solvers and per-gossip model copies", newAsyncBrownout},
	{"gamma-sweep", "memoized sweep service: cold grid (all writes), degree grid (hits beside writes), then both again after a restart (all reads)", newGammaSweep},
}

// bench is one set-up workload. fresh builds the per-run state a run
// consumes (a fleet, a policy, an empty store); run is the measured call.
// A nil tracer is an untraced run.
type bench interface {
	fresh() error
	run(tr *tracer) (outcome, error)
	close() error
}

// outcome is what one run yields: a digest of every output the checks
// compare, the simulated node-rounds it delivered, the paper's quality
// number, and the raw result (held so the live heap includes it).
type outcome struct {
	digest     string
	nodeRounds float64
	accPct     float64
	held       any
	// ops is the number of operations the run counts: 1 per sim/async run,
	// one per grid cell served for the sweeps.
	ops int
	// failures are output checks the run itself failed (sweep hit/miss
	// accounting); digest mismatches are counted by the caller.
	failures []string
}

// digester hashes run outputs into a comparable hex string.
type digester struct{ buf bytes.Buffer }

func (d *digester) f64(vs ...float64) {
	for _, v := range vs {
		binary.Write(&d.buf, binary.LittleEndian, math.Float64bits(v))
	}
}

func (d *digester) ints(vs ...int) {
	for _, v := range vs {
		binary.Write(&d.buf, binary.LittleEndian, int64(v))
	}
}

func (d *digester) sum() string {
	s := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(s[:8])
}

// cifarLike builds the CIFAR-like stand-in every paper-scale workload
// trains on: 40 samples per node, 2-shard non-IID partition, 320 test
// samples.
func cifarLike(nodes int, seed uint64) (dataset.Partition, *dataset.Dataset, error) {
	train, testAll, err := dataset.Generate(dataset.SyntheticConfig{
		Classes: modelClasses, Dim: modelDim, Train: nodes * 40, Test: 640, Noise: 2.5, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	part, err := dataset.ShardPartition(train, nodes, 2, seed)
	if err != nil {
		return nil, nil, err
	}
	_, test := testAll.Split(testAll.Len() / 2)
	return part, test, nil
}

func logisticModel(_ int, r *rng.RNG) *nn.Network {
	return nn.LogisticRegression(modelDim, modelClasses, r)
}

// meanTrainWh is the fleet-mean per-round training cost, the unit the
// harvest knobs (peak, idle) are expressed in.
func meanTrainWh(nodes int, w energy.Workload) float64 {
	return energy.NetworkRoundWh(nodes, energy.Devices(), w) / float64(nodes)
}

// syncBench runs sim.Run. cfg holds the static inputs; perRun attaches
// the state one run consumes (fleet, policy, checkpoint manager).
type syncBench struct {
	cfg    sim.Config
	perRun func(cfg *sim.Config) error
	next   sim.Config
}

func (b *syncBench) fresh() error {
	b.next = b.cfg
	if b.perRun == nil {
		return nil
	}
	return b.perRun(&b.next)
}

func (b *syncBench) close() error { return nil }

func (b *syncBench) run(tr *tracer) (outcome, error) {
	cfg := b.next
	var net *transport.Local
	if tr != nil {
		var err error
		if net, err = tr.attachSync(&cfg); err != nil {
			return outcome{}, err
		}
		defer net.Close()
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.finishSync(&cfg, res, wall)
	}
	var d digester
	d.f64(res.FinalMeanAcc, res.FinalStdAcc)
	d.f64(res.FinalNodeAccs...)
	d.f64(res.TotalTrainWh, res.TotalCommWh, res.TotalHarvestWh, res.TotalWastedWh)
	d.f64(res.FinalSoC...)
	d.ints(res.TrainedRounds...)
	d.ints(res.TotalDroppedSends, res.TotalRevivals, res.TotalRestores)
	for _, m := range res.History {
		d.ints(m.Depleted, m.LiveCount)
	}
	return outcome{
		digest:     d.sum(),
		nodeRounds: float64(cfg.Graph.N * cfg.Rounds),
		accPct:     100 * res.FinalMeanAcc,
		held:       res,
		ops:        1,
	}, nil
}

// newDPSGD is the paper's baseline: D-PSGD trains every round on a
// 6-regular graph, no battery.
func newDPSGD(seed uint64, _ string) (bench, error) {
	g, err := graph.Regular(paperNodes, 6, seed)
	if err != nil {
		return nil, err
	}
	part, test, err := cifarLike(paperNodes, seed)
	if err != nil {
		return nil, err
	}
	return &syncBench{cfg: sim.Config{
		Graph: g, Weights: graph.Metropolis(g),
		Algo:         core.DPSGD(),
		Rounds:       paperRounds,
		ModelFactory: logisticModel,
		LR:           learningRate, BatchSize: batchSize, LocalSteps: localSteps,
		Partition: part, Test: test,
		EvalEvery: evalEvery, EvalSubsample: evalSubsample,
		Devices:  energy.AssignDevices(paperNodes, energy.Devices()),
		Workload: energy.CIFAR10Workload(),
		Seed:     seed,
	}}, nil
}

// newSkipTrainBrownout is SkipTrain at its sync-heavy end (Γtrain=1,
// Γsync=4) on a diurnal harvest fleet whose brown-outs silence radios,
// with catch-up rejoin for revived nodes.
func newSkipTrainBrownout(seed uint64, _ string) (bench, error) {
	g, err := graph.Regular(paperNodes, 10, seed)
	if err != nil {
		return nil, err
	}
	part, test, err := cifarLike(paperNodes, seed)
	if err != nil {
		return nil, err
	}
	gamma, err := core.NewGamma(1, 4)
	if err != nil {
		return nil, err
	}
	devices := energy.AssignDevices(paperNodes, energy.Devices())
	workload := energy.CIFAR10Workload()
	mean := meanTrainWh(paperNodes, workload)
	b := &syncBench{cfg: sim.Config{
		Graph: g, Weights: graph.Metropolis(g),
		Rounds:       paperRounds,
		ModelFactory: logisticModel,
		LR:           learningRate, BatchSize: batchSize, LocalSteps: localSteps,
		Partition: part, Test: test,
		EvalEvery: evalEvery, EvalSubsample: evalSubsample,
		Devices: devices, Workload: workload,
		DropDeadNodes: true,
		Seed:          seed,
	}}
	b.perRun = func(cfg *sim.Config) error {
		trace, err := harvest.NewDiurnal(1.2*mean, 24, harvest.LongitudePhase(paperNodes))
		if err != nil {
			return err
		}
		fleet, err := harvest.NewFleet(devices, workload, trace, harvest.Options{
			CapacityRounds: 12, InitialSoC: 0.5, CutoffSoC: 0.25, IdleWh: 0.3 * mean,
		})
		if err != nil {
			return err
		}
		policy, err := harvest.NewSoCProportional(1)
		if err != nil {
			return err
		}
		rule, err := checkpoint.NewCatchUp(checkpoint.DefaultHalfLife)
		if err != nil {
			return err
		}
		mgr, err := checkpoint.NewManager(paperNodes, nil, rule)
		if err != nil {
			return err
		}
		cfg.Algo = core.Algorithm{Label: "skiptrain-brownout", Schedule: gamma, Policy: policy}
		cfg.Harvest = fleet
		cfg.Checkpoint = mgr
		return nil
	}
	return b, nil
}

// asyncBench runs async.Run; the engine builds its own fleet from the
// trace, so only the policy is per-run state.
type asyncBench struct {
	cfg  async.Config
	next async.Config
}

func (b *asyncBench) fresh() error {
	b.next = b.cfg
	policy, err := harvest.NewSoCProportional(1)
	if err != nil {
		return err
	}
	b.next.Algo = core.Algorithm{Label: "async-brownout", Schedule: core.AllTrain{}, Policy: policy}
	return nil
}

func (b *asyncBench) close() error { return nil }

func (b *asyncBench) run(tr *tracer) (outcome, error) {
	cfg := b.next
	if tr != nil {
		tr.attachAsync(&cfg)
	}
	start := time.Now()
	res, err := async.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.finishAsync(&cfg, res, wall)
	}
	var d digester
	d.f64(res.FinalMeanAcc, res.FinalStdAcc, res.TotalTrainWh)
	d.f64(res.HarvestedWh, res.ConsumedWh, res.WastedWh, res.BrownoutShare)
	d.ints(res.StepsPerNode...)
	d.ints(res.TrainedSteps...)
	d.ints(res.GossipsSent, res.Brownouts, res.DroppedGossips)
	return outcome{
		digest:     d.sum(),
		nodeRounds: float64(cfg.Graph.N * paperRounds),
		accPct:     100 * res.FinalMeanAcc,
		held:       res,
		ops:        1,
	}, nil
}

// newAsyncBrownout is the event-driven engine on a diurnal fleet: the
// same 96 trace rounds as the sync workloads, in continuous virtual time.
func newAsyncBrownout(seed uint64, _ string) (bench, error) {
	g, err := graph.Regular(paperNodes, 6, seed)
	if err != nil {
		return nil, err
	}
	part, test, err := cifarLike(paperNodes, seed)
	if err != nil {
		return nil, err
	}
	devices := energy.AssignDevices(paperNodes, energy.Devices())
	workload := energy.CIFAR10Workload()
	mean := meanTrainWh(paperNodes, workload)
	roundSec := 0.0
	for _, d := range devices {
		roundSec += d.TrainRoundSeconds(workload)
	}
	roundSec /= float64(len(devices))
	trace, err := harvest.NewDiurnal(1.5*mean, 24, harvest.LongitudePhase(paperNodes))
	if err != nil {
		return nil, err
	}
	return &asyncBench{cfg: async.Config{
		Graph:        g,
		Horizon:      paperRounds * roundSec,
		ModelFactory: logisticModel,
		LR:           learningRate, BatchSize: batchSize, LocalSteps: localSteps,
		Partition: part, Test: test,
		Devices: devices, Workload: workload,
		Trace: trace,
		FleetOptions: harvest.Options{
			CapacityRounds: 12, InitialSoC: 0.5, CutoffSoC: 0.25, IdleWh: 0.2 * mean,
		},
		RoundSeconds:     roundSec,
		EvalEverySeconds: evalEvery * roundSec,
		EvalSubsample:    evalSubsample,
		Seed:             seed,
	}}, nil
}

// sweepBench drives the memoized sweep service the way one closed-loop
// client does: grids submitted back to back. Each run makes the cold pass
// (TableGammaHarvest, all writes) and the mixed pass (TableDegreeGamma,
// 80 hits beside 160 writes) on a fresh store, then reruns both tables
// from a fresh Runner over that store (the sweepd-restart path, reads
// only).
type sweepBench struct {
	seed    uint64
	scratch string

	dir  string // the FileStore directory the next run uses
	dirs int    // directories handed out so far
	// ref is the digest every run's tables must match: the tables
	// computed with no sweep service at all (cached ≡ fresh).
	ref string
}

// sweepPass is one table submission's outcome.
type sweepPass struct {
	name  string
	wall  time.Duration
	stats sweep.Stats
	out   []byte
	// bestAcc holds the accuracy of every best cell the table selected.
	bestAcc []float64
}

// options submits grids at sweep cell scale. A traced pass hands its
// probe to both the grid runner (run boundaries per regime) and the Runner
// scope (one cell event per cell served).
func (b *sweepBench) options(r *sweep.Runner, probe *obs.Probe, out *bytes.Buffer) experiments.Options {
	return experiments.Options{Nodes: sweepNodes, Rounds: sweepRounds, Seed: b.seed, Sweep: r, Probe: probe, Out: out}
}

func (b *sweepBench) fresh() error {
	// A new directory per run; the run creates it, since opening the store
	// is the service's own start-up work and file-system metadata latency
	// on a shared disk is too erratic to time as set-up. Stores are removed
	// at close, not between runs, so deletions stay out of the measurement.
	b.dirs++
	b.dir = filepath.Join(b.scratch, fmt.Sprintf("store-%d", b.dirs))
	return nil
}

func (b *sweepBench) close() error { return os.RemoveAll(b.scratch) }

// passes starts a Runner over the FileStore at b.dir, as the sweep
// service does on start-up, and submits TableGammaHarvest then
// TableDegreeGamma to it, one Scope per pass.
func (b *sweepBench) passes(tr *tracer, names [2]string) ([]sweepPass, error) {
	fs, err := sweep.NewFileStore(b.dir)
	if err != nil {
		return nil, err
	}
	var store sweep.Store = sweep.Tiered(sweep.NewMemStore(0), fs)
	if tr != nil {
		store = tr.wrapStore(store)
	}
	runner := sweep.NewRunner(store, par.NewPool(sweepWorkers))
	passes := make([]sweepPass, 2)
	for i := range passes {
		p := &passes[i]
		p.name = names[i]
		var out bytes.Buffer
		probe := tr.sweepProbe(p.name)
		scoped := runner.Scope(probe)
		o := b.options(scoped, probe, &out)
		start := time.Now()
		if i == 0 {
			var rows []experiments.GammaHarvestRow
			rows, err = experiments.TableGammaHarvest(o)
			for _, r := range rows {
				p.bestAcc = append(p.bestAcc, r.Best.FinalAcc)
			}
		} else {
			var res *experiments.DegreeGammaResult
			if res, err = experiments.TableDegreeGamma(o, nil); err == nil {
				for _, row := range res.Best {
					for _, c := range row {
						p.bestAcc = append(p.bestAcc, c.FinalAcc)
					}
				}
			}
		}
		p.wall = time.Since(start)
		if err != nil {
			return nil, err
		}
		p.stats = scoped.Stats()
		p.out = out.Bytes()
		tr.endPass(p)
	}
	tr.finishSweep(b.dir)
	return passes, nil
}

// sweepPassNames are one run's four passes: both tables from an empty
// store, then both again from a restarted Runner over the same store.
var sweepPassNames = [4]string{"cold", "mixed", "warm-gamma", "warm-degree"}

func (b *sweepBench) run(tr *tracer) (outcome, error) {
	filled, err := b.passes(tr, [2]string{sweepPassNames[0], sweepPassNames[1]})
	if err != nil {
		return outcome{}, err
	}
	reread, err := b.passes(tr, [2]string{sweepPassNames[2], sweepPassNames[3]})
	if err != nil {
		return outcome{}, err
	}
	passes := append(filled, reread...)
	var o outcome
	for _, p := range passes {
		o.ops += p.stats.Cells
		o.nodeRounds += float64(p.stats.Cells * sweepNodes * sweepRounds)
	}
	o.digest = tablesDigest(filled)
	o.held = passes
	o.accPct = meanBestAccuracy(filled)
	// The hit/miss accounting is part of the output contract: the cold
	// pass computes every cell, the mixed pass shares exactly the degree-6
	// column, and the restarted Runner serves everything from the store.
	want := [4]sweep.Stats{{Cells: 80, Misses: 80}, {Cells: 240, Hits: 80, Misses: 160}, {Cells: 80, Hits: 80}, {Cells: 240, Hits: 240}}
	for i, p := range passes {
		if p.stats != want[i] {
			o.failures = append(o.failures, fmt.Sprintf("%s pass: %s, want %s", p.name, p.stats, want[i]))
		}
	}
	if b.ref != "" && o.digest != b.ref {
		o.failures = append(o.failures, fmt.Sprintf("tables %s differ from the tables computed without the sweep service (%s)", o.digest, b.ref))
	}
	if warm := tablesDigest(reread); warm != o.digest {
		o.failures = append(o.failures, fmt.Sprintf("tables read back after the restart (%s) differ from the tables that filled the store (%s)", warm, o.digest))
	}
	return o, nil
}

// tablesDigest hashes the rendered tables of a pair of passes.
func tablesDigest(passes []sweepPass) string {
	var d digester
	for _, p := range passes {
		d.buf.Write(p.out)
	}
	return d.sum()
}

// meanBestAccuracy is the mean validation accuracy (percent) of the
// best cells the tables select: 5 regimes from the gamma table, 15
// degree x regime pairs from the degree table.
func meanBestAccuracy(passes []sweepPass) float64 {
	sum, n := 0.0, 0
	for _, p := range passes {
		for _, acc := range p.bestAcc {
			sum += acc
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// newGammaSweep is the memoized sweep workload: every run starts from an
// empty FileStore in a fresh directory. Set-up renders both tables once
// with no sweep service attached (every cell computed directly, nothing
// encoded or stored) as the reference the memoized runs must reproduce
// bit for bit.
func newGammaSweep(seed uint64, scratch string) (bench, error) {
	b := &sweepBench{seed: seed, scratch: filepath.Join(scratch, "gamma-sweep")}
	var out bytes.Buffer
	o := b.options(nil, nil, &out)
	if _, err := experiments.TableGammaHarvest(o); err != nil {
		return nil, err
	}
	if _, err := experiments.TableDegreeGamma(o, nil); err != nil {
		return nil, err
	}
	var d digester
	d.buf.Write(out.Bytes())
	b.ref = d.sum()
	return b, nil
}
