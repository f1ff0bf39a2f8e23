package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/harvest"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// Layers the benchmark's wrappers time. Spans are aggregated per round
// per layer as they happen; no per-call record is kept.
const (
	spanSend = iota
	spanRecv
	spanTryTrain
	spanEndRound
	spanParticipate
	spanGet
	spanPut
	// The sim phases, recorded from the probe's phase events.
	spanPhases
	numSpans = spanPhases + 7
)

var spanNames = [numSpans]string{
	"transport.send", "transport.recv", "harvest.trytrain", "harvest.endround",
	"core.participate", "sweep.get", "sweep.put",
	"sim.liveset", "sim.rejoin", "sim.train", "sim.share", "sim.aggregate", "sim.battery", "sim.eval",
}

// maxRows bounds the per-round span table; later rounds share the last row.
const maxRows = 1024

type spanCell struct{ count, ns atomic.Int64 }

// spans aggregates wrapper timings per round per layer. row is the round
// the engine is in, advanced by the probe sink on round_start events.
type spans struct {
	row  atomic.Int64
	rows [maxRows][numSpans]spanCell
	used atomic.Int64
}

func (s *spans) setRow(r int) {
	s.row.Store(int64(min(max(r, 0), maxRows-1)))
}

func (s *spans) add(layer int, d time.Duration) {
	s.addAt(int(s.row.Load()), layer, d)
}

func (s *spans) addAt(row, layer int, d time.Duration) {
	row = min(max(row, 0), maxRows-1)
	c := &s.rows[row][layer]
	c.count.Add(1)
	c.ns.Add(int64(d))
	for {
		u := s.used.Load()
		if int64(row) < u || s.used.CompareAndSwap(u, int64(row)+1) {
			return
		}
	}
}

func (s *spans) total(layer int) (count, ns int64) {
	for r := int64(0); r < s.used.Load(); r++ {
		count += s.rows[r][layer].count.Load()
		ns += s.rows[r][layer].ns.Load()
	}
	return count, ns
}

// spanRow is one (round, layer) aggregate in the written-out trace. Self
// time is the total minus nested child spans on the same goroutine:
// harvest.trytrain runs inside core.participate for battery policies.
// Phase spans are wall time on the coordinator while wrapper spans sum
// over workers, so phases are reported with self = total.
type spanRow struct {
	Round   int    `json:"round"`
	Label   string `json:"label,omitempty"`
	Layer   string `json:"layer"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (s *spans) rowsOut(labels []string) []spanRow {
	var out []spanRow
	for r := int64(0); r < s.used.Load(); r++ {
		for l := 0; l < numSpans; l++ {
			c := &s.rows[r][l]
			n := c.count.Load()
			if n == 0 {
				continue
			}
			row := spanRow{Round: int(r), Layer: spanNames[l], Count: n, TotalNs: c.ns.Load()}
			row.SelfNs = row.TotalNs
			if l == spanParticipate {
				row.SelfNs -= s.rows[r][spanTryTrain].ns.Load()
			}
			if int(r) < len(labels) {
				row.Label = labels[r]
			}
			out = append(out, row)
		}
	}
	return out
}

// rowSink advances the span row on every round_start the engine emits.
type rowSink struct{ s *spans }

func (r rowSink) Emit(ev obs.Event) {
	if ev.Kind == obs.KindRoundStart {
		r.s.setRow(ev.Round)
	}
}

func (rowSink) Close() error { return nil }

// layerTotals accumulates every traced run's per-layer counters.
type layerTotals struct {
	runs       int
	wallNs     float64 // traced measured-call wall time
	nodeRounds float64

	phaseNs     map[string]float64
	shareAllocB float64
	aggAllocB   float64

	dropped        float64
	brownouts      float64
	restores       float64
	trainCalls     float64
	participateYes float64
	tryTrainOK     float64
	liveMasks      [][]bool

	// async
	steps, trainedSteps, gossips, droppedGossips float64
	evalSamples                                  float64

	// sweep
	getNs, putNs       []int64
	hits, misses, shrd float64
	storeBytes         float64
	missCellNs         float64
	poolNs             float64 // Σ pass wall × workers

	violations []string
}

// tracer is the traced run's instrumentation: an obs.Probe with
// TrackAllocs into an in-memory sink plus analyze.Auditor, and read-only
// wrappers around the transport, harvest engine, policy and sweep store.
// The sweep hooks are safe on a nil tracer (an untraced run).
type tracer struct {
	// delay is spent inside every wrapped Send; the attribution self-test
	// uses it to inject a slowdown into one layer.
	delay time.Duration

	spans     spans
	labels    []string
	sentBytes atomic.Int64
	tot       layerTotals

	mem   *obs.MemorySink
	audit *analyze.Auditor

	// Per-run wrappers, read back when the run finishes.
	policy *timedPolicy
	fleet  *timedEngine
	store  *timedStore
}

func newTracer() *tracer {
	return &tracer{tot: layerTotals{phaseNs: map[string]float64{}}}
}

// newProbe starts a fresh event stream and auditor for one traced run.
func (t *tracer) newProbe() *obs.Probe {
	t.mem = obs.NewMemory()
	t.audit = analyze.NewAuditor()
	probe := obs.NewProbe(obs.Multi(t.mem, t.audit, rowSink{&t.spans}))
	probe.TrackAllocs = true
	return probe
}

// closeProbe runs the auditor's end-of-stream checks and keeps its
// violations.
func (t *tracer) closeProbe() []obs.Event {
	t.audit.Close()
	for _, v := range t.audit.Violations() {
		t.tot.violations = append(t.tot.violations, v.String())
	}
	if n := t.audit.Overflow(); n > 0 {
		t.tot.violations = append(t.tot.violations, fmt.Sprintf("%d more violations past the auditor's cap", n))
	}
	return t.mem.Events()
}

// attachSync wires the probe and wrappers into a sim config. The returned
// network is the wrapped transport's backing store; the caller closes it.
func (t *tracer) attachSync(cfg *sim.Config) (*transport.Local, error) {
	maxDeg := 0
	for i := 0; i < cfg.Graph.N; i++ {
		if d := cfg.Graph.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	// The capacity sim.Run gives its own default network.
	local, err := transport.NewLocal(cfg.Graph.N, 2*maxDeg+4)
	if err != nil {
		return nil, err
	}
	cfg.Network = &timedNetwork{inner: local, t: t}
	cfg.Probe = t.newProbe()
	t.policy = wrapPolicy(cfg.Algo.Policy, &t.spans)
	cfg.Algo.Policy = t.policy.outer
	t.fleet = nil
	if cfg.Harvest != nil {
		t.fleet = &timedEngine{Engine: cfg.Harvest, s: &t.spans}
		cfg.Harvest = t.fleet
	}
	return local, nil
}

func (t *tracer) finishSync(cfg *sim.Config, res *sim.Result, wall time.Duration) {
	events := t.closeProbe()
	tot := &t.tot
	tot.runs++
	tot.wallNs += float64(wall)
	tot.nodeRounds += float64(cfg.Graph.N * cfg.Rounds)
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindPhase:
			tot.phaseNs[ev.Phase] += float64(ev.WallNs)
			for i, ph := range simPhases {
				if ph == ev.Phase {
					t.spans.addAt(ev.Round, spanPhases+i, time.Duration(ev.WallNs))
				}
			}
			switch ev.Phase {
			case "share":
				tot.shareAllocB += float64(ev.AllocBytes)
			case "aggregate":
				tot.aggAllocB += float64(ev.AllocBytes)
			}
		case obs.KindBrownout:
			tot.brownouts++
		}
	}
	tot.dropped += float64(res.TotalDroppedSends)
	tot.restores += float64(res.TotalRestores)
	for _, tr := range res.TrainedRounds {
		tot.trainCalls += float64(tr * cfg.LocalSteps)
	}
	if t.fleet != nil {
		tot.liveMasks = append(tot.liveMasks, t.fleet.masks...)
		tot.tryTrainOK += float64(t.fleet.succeeded.Load())
	}
	tot.participateYes += float64(t.policy.yes.Load())
}

func (t *tracer) attachAsync(cfg *async.Config) {
	cfg.Probe = t.newProbe()
	t.policy = wrapPolicy(cfg.Algo.Policy, &t.spans)
	cfg.Algo.Policy = t.policy.outer
}

func (t *tracer) finishAsync(cfg *async.Config, res *async.Result, wall time.Duration) {
	t.closeProbe()
	tot := &t.tot
	tot.runs++
	tot.wallNs += float64(wall)
	tot.nodeRounds += float64(cfg.Graph.N * paperRounds)
	for i := range res.StepsPerNode {
		tot.steps += float64(res.StepsPerNode[i])
		tot.trainedSteps += float64(res.TrainedSteps[i])
	}
	for _, ts := range res.TrainedSteps {
		tot.trainCalls += float64(ts * cfg.LocalSteps)
	}
	tot.participateYes += float64(t.policy.yes.Load())
	tot.gossips += float64(res.GossipsSent)
	tot.droppedGossips += float64(res.DroppedGossips)
	tot.brownouts += float64(res.Brownouts)
	tot.evalSamples += float64(len(res.History) * cfg.Graph.N * cfg.EvalSubsample)
}

// sweepProbe starts a pass: the pass's cell events go to a fresh probe,
// and wrapper spans land in the pass's row. Nil on an untraced run.
func (t *tracer) sweepProbe(pass string) *obs.Probe {
	if t == nil {
		return nil
	}
	t.spans.setRow(len(t.labels))
	t.labels = append(t.labels, pass)
	return t.newProbe()
}

// wrapStore times every Get and Put the runner makes.
func (t *tracer) wrapStore(s sweep.Store) sweep.Store {
	t.store = &timedStore{inner: s, spans: &t.spans}
	return t.store
}

// endPass closes the pass's stream. The Runner's cell events (label
// "<verdict> <key>") carry the compute wall time of every miss.
func (t *tracer) endPass(p *sweepPass) {
	if t == nil {
		return
	}
	tot := &t.tot
	for _, ev := range t.closeProbe() {
		if ev.Kind == obs.KindCell && strings.HasPrefix(ev.Label, "miss ") {
			tot.missCellNs += float64(ev.WallNs)
		}
	}
	tot.runs++
	tot.wallNs += float64(p.wall)
	tot.nodeRounds += float64(p.stats.Cells * sweepNodes * sweepRounds)
	tot.poolNs += float64(p.wall) * sweepWorkers
	tot.hits += float64(p.stats.Hits)
	tot.misses += float64(p.stats.Misses)
	tot.shrd += float64(p.stats.Shared)
}

// finishSweep keeps the store latencies and the store's size on disk.
func (t *tracer) finishSweep(dir string) {
	if t == nil {
		return
	}
	tot := &t.tot
	tot.getNs = append(tot.getNs, t.store.get...)
	tot.putNs = append(tot.putNs, t.store.put...)
	var size int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	tot.storeBytes = float64(size)
}

// timedNetwork hands out endpoints that time Send and Recv.
type timedNetwork struct {
	inner transport.Network
	t     *tracer
}

func (n *timedNetwork) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{inner: ep, t: n.t}, nil
}

func (n *timedNetwork) Close() error { return n.inner.Close() }

type timedEndpoint struct {
	inner transport.Endpoint
	t     *tracer
}

func (e *timedEndpoint) Send(to int, m transport.Message) error {
	start := time.Now()
	if d := e.t.delay; d > 0 {
		for time.Since(start) < d {
		}
	}
	err := e.inner.Send(to, m)
	e.t.spans.add(spanSend, time.Since(start))
	e.t.sentBytes.Add(int64(8 * len(m.Vec)))
	return err
}

func (e *timedEndpoint) Recv() (transport.Message, error) {
	start := time.Now()
	m, err := e.inner.Recv()
	e.t.spans.add(spanRecv, time.Since(start))
	return m, err
}

func (e *timedEndpoint) Close() error { return e.inner.Close() }

// timedEngine forwards every harvest.Engine method; it times the round
// close-out and TryTrain (the engine is also the policies' BatteryView),
// counts TryTrain outcomes, and copies the live masks sim.Run reads.
type timedEngine struct {
	harvest.Engine
	s         *spans
	succeeded atomic.Int64
	masks     [][]bool
}

func (e *timedEngine) TryTrain(node int) bool {
	start := time.Now()
	ok := e.Engine.TryTrain(node)
	e.s.add(spanTryTrain, time.Since(start))
	if ok {
		e.succeeded.Add(1)
	}
	return ok
}

func (e *timedEngine) Live() []bool {
	live := e.Engine.Live()
	e.masks = append(e.masks, append([]bool(nil), live...))
	return live
}

func (e *timedEngine) EndRound(t int) []float64 {
	start := time.Now()
	out := e.Engine.EndRound(t)
	e.s.add(spanEndRound, time.Since(start))
	return out
}

func (e *timedEngine) EndRoundLive(t int, live []bool) []float64 {
	start := time.Now()
	out := e.Engine.EndRoundLive(t, live)
	e.s.add(spanEndRound, time.Since(start))
	return out
}

// timedPolicy times Participate. outer is what the engine sees: the
// wrapper itself, extended with whichever marker interfaces the wrapped
// policy implements, so the engines' configuration checks see the same
// policy contract.
type timedPolicy struct {
	inner core.Policy
	s     *spans
	yes   atomic.Int64
	outer core.Policy
}

type batteryMark struct{}

func (batteryMark) RequiresBattery() {}

type forecastMark struct{}

func (forecastMark) RequiresForecast() {}

func wrapPolicy(p core.Policy, s *spans) *timedPolicy {
	w := &timedPolicy{inner: p, s: s}
	_, battery := p.(core.BatteryDependent)
	_, forecast := p.(core.ForecastDependent)
	switch {
	case battery && forecast:
		w.outer = struct {
			*timedPolicy
			batteryMark
			forecastMark
		}{w, batteryMark{}, forecastMark{}}
	case battery:
		w.outer = struct {
			*timedPolicy
			batteryMark
		}{w, batteryMark{}}
	case forecast:
		w.outer = struct {
			*timedPolicy
			forecastMark
		}{w, forecastMark{}}
	default:
		w.outer = w
	}
	return w
}

func (p *timedPolicy) Participate(node int, ctx core.RoundContext, r *rng.RNG) bool {
	start := time.Now()
	ok := p.inner.Participate(node, ctx, r)
	p.s.add(spanParticipate, time.Since(start))
	if ok {
		p.yes.Add(1)
	}
	return ok
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

// timedStore records the latency of every store call.
type timedStore struct {
	inner    sweep.Store
	spans    *spans
	mu       sync.Mutex
	get, put []int64
}

func (s *timedStore) Get(k sweep.CellKey) (sweep.CellResult, bool, error) {
	start := time.Now()
	res, ok, err := s.inner.Get(k)
	d := time.Since(start)
	s.spans.add(spanGet, d)
	s.mu.Lock()
	s.get = append(s.get, int64(d))
	s.mu.Unlock()
	return res, ok, err
}

func (s *timedStore) Put(res sweep.CellResult) error {
	start := time.Now()
	err := s.inner.Put(res)
	d := time.Since(start)
	s.spans.add(spanPut, d)
	s.mu.Lock()
	s.put = append(s.put, int64(d))
	s.mu.Unlock()
	return err
}
