package experiment

import (
	"fmt"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// LoadOpts are the knobs the throughput and service studies share: each
// load point builds a fresh network, converges it, and drives Ops control
// operations through the sink command plane.
type LoadOpts struct {
	// Warmup lets the tree, codes, and registries converge before the
	// workload starts.
	Warmup time.Duration
	// Ops is the number of control operations per load point.
	Ops int
	// Rates are the open-loop offered rates (operations per second).
	Rates []float64
	// Dist selects the destination distribution: "uniform",
	// "hotspot" (bias 80% of operations onto the largest hop-1 subtree),
	// or "depth" (weight by CTP hop count).
	Dist string
	// Window is the sink scheduler's open-loop admission window (a
	// closed-loop sweep uses each swept concurrency instead).
	Window int
	// PerGroup caps concurrent in-flight operations per shared-prefix
	// subtree group; GroupBits sets the prefix depth (see sink.GroupKey).
	PerGroup  int
	GroupBits int
	// Retries is the per-operation retry budget layered over protocol
	// recovery; OpBudget (optional) bounds an operation's total lifetime.
	Retries  int
	OpBudget time.Duration
	// MaxRun caps each load point's workload phase in simulated time, so
	// a collapsed network cannot hang the study.
	MaxRun time.Duration
	// Trace collects the sink-layer command-plane events of every load
	// point into the result (seed-merge safe).
	Trace bool
}

// ThroughputOpts tunes a throughput study: a sweep of offered load
// against the sink command plane, one fresh network per load point.
type ThroughputOpts struct {
	LoadOpts
	// Mode selects the loop discipline: "closed" (fixed concurrency,
	// sweeps Concurrency) or "open" (Poisson arrivals, sweeps Rates).
	Mode string
	// Concurrency are the closed-loop widths to sweep; each width also
	// sets the scheduler's admission window, so the sweep measures how the
	// command plane scales with sink-side parallelism.
	Concurrency []int
}

// DefaultThroughputOpts returns a closed-loop sweep over 1..8-way
// concurrency with moderate per-point cost.
func DefaultThroughputOpts() ThroughputOpts {
	return ThroughputOpts{
		LoadOpts: LoadOpts{
			Warmup:    4 * time.Minute,
			Ops:       40,
			Dist:      "uniform",
			Window:    8,
			PerGroup:  1,
			GroupBits: 6,
			Retries:   1,
			MaxRun:    30 * time.Minute,
		},
		Mode:        "closed",
		Concurrency: []int{1, 2, 4, 8},
	}
}

// ThroughputPoint is one load point of the sweep.
type ThroughputPoint struct {
	// Label names the swept knob value ("conc=8" or "rate=0.50").
	Label string
	// Offered is the realized offered load (submitted operations per
	// second of workload phase); for closed loops it tracks goodput.
	Offered float64
	// Goodput is successfully completed operations per second.
	Goodput float64

	Ops        int
	OK         int
	Failed     int
	Unroutable int
	Rejected   int
	Expired    int
	Retries    int
	// Unresolved counts operations still pending when MaxRun cut the
	// point off (0 on a healthy run).
	Unresolved int

	// Latency is the end-to-end sink latency (enqueue → completion,
	// seconds) of successful operations; QueueWait is their admission
	// delay component.
	Latency   *stats.Series
	QueueWait *stats.Series
}

// ThroughputResult aggregates one throughput sweep.
type ThroughputResult struct {
	Proto    string
	Scenario string
	Mode     string
	Dist     string
	Points   []*ThroughputPoint
	// Events is the collected sink-layer telemetry (ThroughputOpts.Trace);
	// merged seed runs carry their replication index in Event.Run.
	Events []telemetry.Event
}

// throughputDist builds the destination distribution over the live
// non-sink nodes of a converged network.
func throughputDist(net *Net, kind string) (workload.Dist, error) {
	var nodes []radio.NodeID
	for i := range net.Stacks {
		id := radio.NodeID(i)
		if id == net.Sink || !net.Alive(id) {
			continue
		}
		nodes = append(nodes, id)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("experiment: no destinations for throughput workload")
	}
	switch kind {
	case "", "uniform":
		return workload.Uniform(nodes), nil
	case "depth":
		return workload.DepthWeighted(nodes, net.CTPHops), nil
	case "hotspot":
		// The hot set is the largest hop-1 subtree: group every node by
		// its ancestor adjacent to the sink (protocol-agnostic — the CTP
		// parent chain exists under every control protocol). Ties break
		// toward the lowest ancestor id for determinism.
		bySubtree := make(map[radio.NodeID][]radio.NodeID)
		for _, id := range nodes {
			if a, ok := net.hop1Ancestor(id); ok {
				bySubtree[a] = append(bySubtree[a], id)
			}
		}
		var hotRoot radio.NodeID
		best := -1
		for a, members := range bySubtree {
			if len(members) > best || (len(members) == best && a < hotRoot) {
				best = len(members)
				hotRoot = a
			}
		}
		return workload.Hotspot(nodes, bySubtree[hotRoot], 0.8), nil
	default:
		return nil, fmt.Errorf("experiment: unknown destination distribution %q", kind)
	}
}

// hop1Ancestor walks id's CTP parent chain to the node adjacent to the
// sink (id itself when it is hop 1); false on detachment or loops.
func (n *Net) hop1Ancestor(id radio.NodeID) (radio.NodeID, bool) {
	cur := id
	for hops := 0; hops <= len(n.Stacks); hops++ {
		p := n.Stacks[cur].Ctp.Parent()
		if p == n.Sink {
			return cur, true
		}
		if p == ctp.NoParent || int(p) >= len(n.Stacks) {
			return 0, false
		}
		cur = p
	}
	return 0, false
}

// pointLabels expands the swept knob of the options into load points.
func (o ThroughputOpts) points() ([]string, error) {
	switch o.Mode {
	case "", "closed":
		if len(o.Concurrency) == 0 {
			return nil, fmt.Errorf("experiment: closed-loop throughput study with no concurrency levels")
		}
		labels := make([]string, len(o.Concurrency))
		for i, c := range o.Concurrency {
			if c < 1 {
				return nil, fmt.Errorf("experiment: closed-loop concurrency %d, want >= 1", c)
			}
			labels[i] = fmt.Sprintf("conc=%d", c)
		}
		return labels, nil
	case "open":
		if len(o.Rates) == 0 {
			return nil, fmt.Errorf("experiment: open-loop throughput study with no rates")
		}
		labels := make([]string, len(o.Rates))
		for i, r := range o.Rates {
			labels[i] = fmt.Sprintf("rate=%.2f", r)
		}
		return labels, nil
	default:
		return nil, fmt.Errorf("experiment: unknown workload mode %q", o.Mode)
	}
}

// RunThroughputStudy sweeps offered load against the sink command plane:
// each load point builds a fresh network from the scenario, converges it,
// and drives Ops control operations through a sink.Scheduler with the
// configured workload generator. Deterministic per seed: the same seed
// yields byte-identical results under serial and parallel replication.
func RunThroughputStudy(scn Scenario, proto Proto, opts ThroughputOpts) (*ThroughputResult, error) {
	labels, err := opts.points()
	if err != nil {
		return nil, err
	}
	res := &ThroughputResult{
		Proto:    proto.String(),
		Scenario: scn.Name,
		Mode:     opts.Mode,
		Dist:     opts.Dist,
	}
	if res.Mode == "" {
		res.Mode = "closed"
	}
	if res.Dist == "" {
		res.Dist = "uniform"
	}

	for pi, label := range labels {
		conc := 0
		if res.Mode == "closed" {
			conc = opts.Concurrency[pi]
		}
		var sched *sink.Scheduler
		run, err := opts.runPoint(scn, proto, pi, conc, uint32(pi)<<20, func(net *Net, cfg sink.Config) commandPlane {
			sched = sink.New(net.Eng, net.SinkCtrl(), cfg)
			sched.SetTelemetry(net.Bus, net.Sink)
			return sched
		})
		if err != nil {
			return nil, err
		}
		pt := &ThroughputPoint{
			Label:      label,
			Offered:    run.offered,
			Goodput:    run.goodput,
			Ops:        opts.Ops,
			Retries:    int(sched.Stats().Retried),
			Unresolved: run.unresolved,
			Latency:    &stats.Series{},
			QueueWait:  &stats.Series{},
		}
		for _, o := range run.outcomes {
			switch {
			case o.OK:
				pt.OK++
				pt.Latency.Add(o.Total().Seconds())
				pt.QueueWait.Add(o.QueueWait().Seconds())
			case o.Err == nil:
				pt.Failed++
			case o.Err == sink.ErrQueueFull:
				pt.Rejected++
			case o.Err == sink.ErrBudget:
				pt.Expired++
			default:
				pt.Unroutable++
			}
		}
		res.Points = append(res.Points, pt)
		res.Events = append(res.Events, run.events...)
	}
	return res, nil
}

// commandPlane is the sink-side admission front a load point drives: the
// plain scheduler, or the command service wrapping one. Each admit
// callback attaches the bus to the plane it builds.
type commandPlane interface {
	workload.Submitter
	SetCoder(fn func(radio.NodeID) (core.PathCode, bool))
}

// loadRun is the workload phase of one load point.
type loadRun struct {
	outcomes   []sink.Outcome
	ok         int
	unresolved int
	// offered and goodput are resolved and successful operations per
	// second of workload phase.
	offered float64
	goodput float64
	events  []telemetry.Event
}

// runPoint drives load point pi of a sweep: a fresh network built from
// scn and converged for Warmup, then Ops operations through the command
// plane that admit assembles over the point's scheduler config, until
// every operation resolved or MaxRun passed. conc > 0 runs a closed loop
// of that width, which is also the admission window; otherwise an open
// loop at Rates[pi].
func (o LoadOpts) runPoint(scn Scenario, proto Proto, pi, conc int, ticketBase uint32, admit func(*Net, sink.Config) commandPlane) (*loadRun, error) {
	net, err := Build(scn.config(proto))
	if err != nil {
		return nil, err
	}
	var collector *telemetry.Collector
	if o.Trace {
		collector = telemetry.NewCollector()
		net.Bus.Subscribe(collector, telemetry.LayerSink)
	}
	if scn.OnNetBuilt != nil {
		scn.OnNetBuilt(net)
	}
	net.Start()
	if err := net.Run(o.Warmup); err != nil {
		return nil, err
	}
	dist, err := throughputDist(net, o.Dist)
	if err != nil {
		return nil, err
	}

	cfg := sink.Config{
		Window:    o.Window,
		PerGroup:  o.PerGroup,
		GroupBits: o.GroupBits,
		Retries:   o.Retries,
		OpBudget:  o.OpBudget,
		// Disjoint ticket ranges per load point keep the merged
		// telemetry spans of the sweep from colliding.
		TicketBase: ticketBase,
	}
	if conc > 0 {
		cfg.Window = conc
	}
	plane := admit(net, cfg)
	if te := net.SinkTele(); te != nil {
		plane.SetCoder(te.DstCode)
	}

	// One decorrelated stream per load point, so adding a point never
	// perturbs the destinations of the others.
	rng := sim.DeriveRNG(scn.Seed, 0x3077+uint64(pi))
	var gen workload.Generator
	if conc > 0 {
		gen = workload.NewClosedLoop(net.Eng, plane, dist, rng, conc, o.Ops)
	} else {
		gen = workload.NewOpenLoop(net.Eng, plane, dist, rng, o.Rates[pi], o.Ops)
	}

	maxRun := o.MaxRun
	if maxRun <= 0 {
		maxRun = 30 * time.Minute
	}
	start := net.Eng.Now()
	gen.Start()
	for !gen.Done() && net.Eng.Now()-start < maxRun {
		chunk := 30 * time.Second
		if left := maxRun - (net.Eng.Now() - start); left < chunk {
			chunk = left
		}
		if err := net.Run(chunk); err != nil {
			return nil, err
		}
	}
	elapsed := net.Eng.Now() - start
	if gen.Done() && gen.FinishedAt() > start {
		elapsed = gen.FinishedAt() - start
	}

	run := &loadRun{outcomes: gen.Outcomes(), unresolved: o.Ops - len(gen.Outcomes())}
	for _, oc := range run.outcomes {
		if oc.OK {
			run.ok++
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		run.offered = float64(len(run.outcomes)) / secs
		run.goodput = float64(run.ok) / secs
	}
	if collector != nil {
		run.events = collector.Events()
	}
	return run, nil
}

// MergeThroughputResults merges per-seed sweeps point-by-point in slice
// (seed) order: counters sum, sample series pool, and rates average.
func MergeThroughputResults(results []*ThroughputResult) *ThroughputResult {
	var merged *ThroughputResult
	events := mergeEvents(results, func(r *ThroughputResult) []telemetry.Event { return r.Events })
	n := float64(len(results))
	for _, res := range results {
		if merged == nil {
			merged = res
			continue
		}
		for i, pt := range res.Points {
			m := merged.Points[i]
			m.Offered += pt.Offered
			m.Goodput += pt.Goodput
			m.Ops += pt.Ops
			m.OK += pt.OK
			m.Failed += pt.Failed
			m.Unroutable += pt.Unroutable
			m.Rejected += pt.Rejected
			m.Expired += pt.Expired
			m.Retries += pt.Retries
			m.Unresolved += pt.Unresolved
			m.Latency.Merge(pt.Latency)
			m.QueueWait.Merge(pt.QueueWait)
		}
	}
	if merged == nil {
		return nil
	}
	if len(results) > 1 {
		for _, m := range merged.Points {
			m.Offered /= n
			m.Goodput /= n
		}
	}
	merged.Events = events
	return merged
}
