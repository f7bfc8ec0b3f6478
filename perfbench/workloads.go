package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/ctp"
	"teleadjust/internal/experiment"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// workloadDef is one named reference workload. A unit is one complete,
// deterministic run of the workload for a seed: the same seed gives the
// same simulated outcome and digest every time.
type workloadDef struct {
	name  string
	proto experiment.Proto
	// scenario builds replication rep's scenario for the workload seed.
	scenario func(seed uint64, rep int) experiment.Scenario
	reps     int
	// run executes one unit; in is nil for an untraced run.
	run func(w *workloadDef, seed uint64, in *instrument) (*unit, error)
	// assemble adds the workload's set-up beyond experiment.Build (the
	// command service) to a freshly built network; nil when there is none.
	assemble func(net *experiment.Net, in *instrument) *cmdsvc.Service
	// svc sizes a command-service workload.
	svc svcParams
}

var workloads = map[string]*workloadDef{
	"line-retele": {
		name:     "line-retele",
		proto:    experiment.ProtoReTele,
		scenario: func(seed uint64, rep int) experiment.Scenario { return experiment.Line(repSeed(seed, rep)) },
		reps:     lineReps,
		run:      runLine,
	},
	"line-service": {
		name:     "line-service",
		proto:    experiment.ProtoTeleAdjust,
		scenario: noisyLine,
		reps:     lineSvcReps,
		run:      runService,
		assemble: assembleService,
		// Below the service's capacity: at overload the outcome turns
		// chaotic (see NOTES.md), at 0.15 commands/s it repeats.
		svc: svcParams{opsPerTenant: 40, rate: 0.15, warmup: 10 * time.Minute, horizon: 30 * time.Minute, chunk: 10 * time.Second},
	},
	"refgrid-service": {
		name:  "refgrid-service",
		proto: experiment.ProtoTeleAdjust,
		scenario: func(seed uint64, rep int) experiment.Scenario {
			return experiment.ReferenceGrid(repSeed(seed, rep))
		},
		reps:     2,
		run:      runService,
		assemble: assembleService,
		// 1.8 commands/s is the overload point of the default service
		// study's ramp, several times what the field completes.
		svc: svcParams{opsPerTenant: 25, rate: 1.8, warmup: 4 * time.Minute, horizon: 30 * time.Minute, chunk: 10 * time.Second},
	},
	"grid1k-form": {
		name:     "grid1k-form",
		proto:    experiment.ProtoTeleAdjust,
		scenario: func(seed uint64, rep int) experiment.Scenario { return experiment.Grid1K(repSeed(seed, rep)) },
		reps:     1,
		run:      runForm,
	},
}

const lineSvcReps = 32

// noisyLine is the 8-node line with a trained CPM noise floor, the
// convention of the other scenarios (noise seed = seed ^ 0x77): every
// reception pays the noise model and the SINR/PRR math, while the short
// links keep deliveries reliable.
func noisyLine(seed uint64, rep int) experiment.Scenario {
	s := experiment.Line(repSeed(seed, rep))
	s.NoiseSeed = s.Seed ^ 0x77
	return s
}

// repSeed is replication rep's seed: the rep-th of the workload seed's
// experiment.DeriveSeeds stream.
func repSeed(seed uint64, rep int) uint64 { return experiment.DeriveSeeds(seed, rep+1)[rep] }

// configFor mirrors the experiment package's scenario → network config
// mapping for experiment.Build.
func configFor(s experiment.Scenario, p experiment.Proto) experiment.Config {
	return experiment.Config{
		Dep:            s.Dep,
		Radio:          s.Radio,
		Mac:            s.Mac,
		Ctp:            s.Ctp,
		Tele:           s.Tele,
		Drip:           s.Drip,
		Rpl:            s.Rpl,
		Protocol:       p,
		Codec:          s.Codec,
		NoiseTraceSeed: s.NoiseSeed,
		NoiseProfile:   s.NoiseProfile,
		WifiPowerDBm:   s.WifiPowerDBm,
		Fault:          s.Fault,
		Seed:           s.Seed,
	}
}

// rescueOn reports whether the workload's protocol runs the Re-Tele
// countermeasure (the oracle checks detours against it): Re-Tele always,
// plain TeleAdjusting as the scenario configures it.
func (w *workloadDef) rescueOn(scn experiment.Scenario) bool {
	return w.proto == experiment.ProtoReTele || scn.Tele.Rescue
}

// setupOnce times one unit's set-up alone, replication by replication:
// experiment.Build plus the workload's assembly, without running.
func (w *workloadDef) setupOnce(seed uint64) ([]cost, error) {
	var costs []cost
	for rep := 0; rep < w.reps; rep++ {
		scn := w.scenario(seed, rep)
		t0 := now()
		net, err := experiment.Build(configFor(scn, w.proto))
		if err != nil {
			return nil, err
		}
		if w.assemble != nil {
			w.assemble(net, nil)
		}
		costs = append(costs, t0.since())
	}
	return costs, nil
}

// op is one simulated operation's outcome.
type op struct {
	ok      bool
	latency time.Duration // due time → completion; valid when ok
}

// unit is what one run of a workload measured.
type unit struct {
	// Host side. build is wall time summed over replications.
	wall, build time.Duration
	allocBytes  uint64
	reps        []repCost

	// Simulated side.
	ops           []op
	horizon       time.Duration // latency reported for percentiles among failed ops
	nodeSimSec    float64       // Σ nodes × simulated seconds, warmup included
	phaseSec      float64       // Σ workload-phase simulated seconds
	tx            uint64        // transmissions for tx_per_op
	dutySum       float64       // Σ non-sink duty cycles over the workload phase
	dutyN         int
	layer         layerCounts
	tenantOps     map[string][]*svcOp // service workloads: commands by tenant
	accountingErr error

	digest *digest
	state  *digest // grid1k-form: the end-of-window network state alone
}

func (u *unit) attempted() int { return len(u.ops) }

// spent sums one part of the unit's replication costs.
func (u *unit) spent(part func(repCost) cost) cost {
	var c cost
	for _, rc := range u.reps {
		c = c.add(part(rc))
	}
	return c
}

func (u *unit) okCount() int {
	n := 0
	for _, o := range u.ops {
		if o.ok {
			n++
		}
	}
	return n
}

// layerCounts are the per-layer counters read from public accessors after
// each network's run, summed over replications.
type layerCounts struct {
	networks   int
	events     uint64
	queuePeak  int
	txFrames   uint64
	rxOK       uint64
	rxCorrupt  uint64
	links      int
	macSends   uint64
	macAcked   uint64
	macFailed  uint64
	frameTx    uint64
	suppressed uint64
	ctpFwd     uint64
	ctpDropped uint64

	controlSends, relayed, backtracks, rescues, codeChanges, spaceExt uint64

	sinkRetried, sinkFailed, sinkUnroutable, sinkExpired uint64
	queueWaits, totals, parked                           []float64

	batches, batchedCmds, cacheHits, cacheMisses, shed, delayed uint64
}

// readNet adds one finished network's counters.
func (lc *layerCounts) readNet(net *experiment.Net) {
	lc.networks++
	lc.events += net.Eng.Processed()
	lc.links += net.Medium.NumLinks()
	for i, st := range net.Stacks {
		c := net.Medium.Radio(radio.NodeID(i)).Counters()
		lc.txFrames += c.TxData + c.TxAck
		lc.rxOK += c.RxDelivered
		lc.rxCorrupt += c.RxCorrupted
		ms := st.Mac.Stats()
		lc.macSends += ms.SendsStarted
		lc.macAcked += ms.SendsAcked
		lc.macFailed += ms.SendsFailed
		lc.frameTx += ms.FrameTx
		lc.suppressed += ms.Suppressed
		cs := st.Ctp.Stats()
		lc.ctpFwd += cs.Forwarded
		lc.ctpDropped += cs.DroppedRetry + cs.DroppedNoTree + cs.DroppedTHL + cs.DroppedDup
		if te := net.Tele(radio.NodeID(i)); te != nil {
			s := te.Stats()
			lc.controlSends += s.ControlSends
			lc.relayed += s.ControlRelayed
			lc.backtracks += s.Backtracks
			lc.rescues += s.Rescues
			lc.codeChanges += s.CodeChanges
			lc.spaceExt += s.SpaceExtensions
		}
	}
}

func (lc *layerCounts) sampleQueue(eng *sim.Engine) {
	if q := eng.QueueLen(); q > lc.queuePeak {
		lc.queuePeak = q
	}
}

// onTimes snapshots every radio's cumulative on-time.
func onTimes(net *experiment.Net) []time.Duration {
	out := make([]time.Duration, len(net.Stacks))
	for i := range out {
		out[i] = net.Medium.Radio(radio.NodeID(i)).OnTime()
	}
	return out
}

// addDuty adds each non-sink node's duty cycle between two on-time
// snapshots taken span apart.
func (u *unit) addDuty(sinkID radio.NodeID, base, end []time.Duration, span time.Duration) {
	for i := range end {
		if radio.NodeID(i) == sinkID {
			continue
		}
		u.dutySum += float64(end[i]-base[i]) / float64(span)
		u.dutyN++
	}
}

func controlTx(net *experiment.Net) uint64 {
	var sum uint64
	for _, st := range net.Stacks {
		if st.Ctrl != nil {
			sum += st.Ctrl.ControlTx()
		}
	}
	return sum
}

// runChunked advances the network by d in chunk-sized steps, calling
// sample at every chunk boundary, and stops early once stop reports true
// at a boundary.
func runChunked(net *experiment.Net, d, chunk time.Duration, sample func(), stop func() bool) error {
	end := net.Eng.Now() + d
	for net.Eng.Now() < end {
		step := min(chunk, end-net.Eng.Now())
		if err := net.Run(step); err != nil {
			return err
		}
		sample()
		if stop != nil && stop() {
			break
		}
	}
	return nil
}

// ---- line-retele --------------------------------------------------------

const lineReps = 64

// lineOpts is the 64-rep line study of the profiling harness: ten
// minutes of convergence, then forty packets fifteen seconds apart.
var lineOpts = experiment.ControlOpts{
	Warmup:   10 * time.Minute,
	Packets:  40,
	Interval: 15 * time.Second,
	Drain:    time.Minute,
}

// runLine runs the Re-Tele control study on the 8-node line, one
// replication at a time, through experiment.RunControlStudy.
func runLine(w *workloadDef, seed uint64, in *instrument) (*unit, error) {
	phase := time.Duration(lineOpts.Packets)*lineOpts.Interval + lineOpts.Drain
	u := &unit{horizon: phase, digest: newDigest()}
	for rep := 0; rep < w.reps; rep++ {
		scn := w.scenario(seed, rep)
		// Every replication starts with freed memory handed back to the
		// OS, so the resident set it reaches is its own footprint and not
		// the background scavenger's timing.
		debug.FreeOSMemory()
		pc := probe(probing)
		var (
			net         *experiment.Net
			built       stamp
			onBase      []time.Duration
			txBase      uint64
			traceExtras cost
		)
		start := now()
		scn.OnNetBuilt = func(n *experiment.Net) {
			built = now()
			net = n
			// Phase-start snapshot: one extra no-op-for-the-simulation event
			// at the end of warmup. It reads state only, and same-instant
			// events keep their relative order, so the run is unchanged.
			n.Eng.ScheduleAt(lineOpts.Warmup, func() {
				onBase = onTimes(n)
				txBase = controlTx(n)
			})
			// The runner's delivery hooks already enable the run layer;
			// sampling the queue there adds no emission cost.
			n.Bus.Subscribe(queueSampler{lc: &u.layer, eng: n.Eng}, telemetry.LayerRun)
			if in != nil {
				in.attach(n, scn.Tele, w.rescueOn(scn))
			}
			traceExtras = built.since()
		}
		res, err := experiment.RunControlStudy(scn, w.proto, lineOpts)
		if err != nil {
			return nil, fmt.Errorf("line rep %d: %w", rep, err)
		}
		ran := now()
		setup, simc := start.to(built), built.to(ran).sub(traceExtras)
		u.build += setup.wall
		if in != nil {
			in.check()
		}

		u.nodeSimSec += float64(len(net.Stacks)) * net.Eng.Now().Seconds()
		u.phaseSec += phase.Seconds()
		u.tx += controlTx(net) - txBase
		u.addDuty(net.Sink, onBase, onTimes(net), net.Eng.Now()-lineOpts.Warmup)
		u.layer.readNet(net)

		// Per-op outcomes: the study reports one PDR sample (1/0) per
		// attempted send and one latency sample per delivery, grouped by
		// destination hop count; packets skipped before a send (no live
		// destination) never reach either.
		noRoute := res.Sent + res.Skipped - lineOpts.Packets
		switch {
		case noRoute < 0 || noRoute > res.Skipped:
			u.accountingErr = fmt.Errorf("line rep %d: sent %d + skipped %d does not cover %d packets", rep, res.Sent, res.Skipped, lineOpts.Packets)
		case res.Delivered > res.Sent-noRoute:
			u.accountingErr = fmt.Errorf("line rep %d: delivered %d > sent %d", rep, res.Delivered, res.Sent-noRoute)
		}
		pdrN, latN := 0, 0
		u.digest.add("rep", rep, res.Sent, res.Delivered, res.Skipped, res.AckedOK, net.Eng.Processed())
		for _, hop := range res.PDRByHop.Keys() {
			vals := res.PDRByHop.Get(hop).Values()
			pdrN += len(vals)
			u.digest.add("pdr", hop, vals)
		}
		for _, hop := range res.LatencyByHop.Keys() {
			vals := res.LatencyByHop.Get(hop).Values()
			latN += len(vals)
			u.digest.add("lat", hop, vals)
			for _, v := range vals {
				u.ops = append(u.ops, op{ok: true, latency: time.Duration(v * float64(time.Second))})
			}
		}
		if pdrN != res.Sent || latN != res.Delivered {
			u.accountingErr = fmt.Errorf("line rep %d: %d PDR samples for %d sends, %d latencies for %d deliveries", rep, pdrN, res.Sent, latN, res.Delivered)
		}
		for i := res.Delivered; i < lineOpts.Packets; i++ {
			u.ops = append(u.ops, op{})
		}
		u.digest.add("on", onTimes(net))
		u.reps = append(u.reps, repCost{total: start.since(), setup: setup, sim: simc, probe: pc})
	}
	return u, nil
}

// queueSampler samples the event-queue length at each telemetry event it
// is subscribed to.
type queueSampler struct {
	lc  *layerCounts
	eng *sim.Engine
}

func (q queueSampler) Consume(telemetry.Event) { q.lc.sampleQueue(q.eng) }

// ---- command service ----------------------------------------------------

// svcParams sizes a service workload: per replication, a warmup, then
// two open-loop tenants of opsPerTenant commands at rate/2 each, run
// until every command resolved or the horizon passed.
type svcParams struct {
	opsPerTenant           int
	rate                   float64
	warmup, horizon, chunk time.Duration
}

// svcConfigs returns the scheduler and service configs of the default
// command-service study (experiment.DefaultServiceOpts).
func svcConfigs() (sink.Config, cmdsvc.Config) {
	o := experiment.DefaultServiceOpts()
	return sink.Config{
			Window:    o.Window,
			PerGroup:  o.PerGroup,
			GroupBits: o.GroupBits,
			Retries:   o.Retries,
			OpBudget:  o.OpBudget,
		}, cmdsvc.Config{
			Batch:      cmdsvc.BatcherConfig{Window: o.BatchWindow, Bits: o.BatchBits, MaxBatch: o.MaxBatch},
			Cache:      cmdsvc.CacheConfig{TTL: o.CacheTTL, Cap: o.CacheCap},
			QueueDepth: o.QueueDepth,
			HighWater:  o.HighWater,
			Policy:     cmdsvc.ShedPolicy(o.Policy),
		}
}

// assembleService builds the command service over the sink's engine —
// through the timing wrapper when traced.
func assembleService(net *experiment.Net, in *instrument) *cmdsvc.Service {
	schedCfg, svcCfg := svcConfigs()
	te := net.SinkTele()
	var d sink.Dispatcher = te
	if in != nil {
		d = &dispatchWrap{e: te, tr: in.tr}
	}
	svc := cmdsvc.New(net.Eng, d, schedCfg, svcCfg)
	svc.SetTelemetry(net.Metrics, net.Bus, net.Sink)
	svc.SetCoder(te.DstCode)
	return svc
}

// svcOp is one generated command.
type svcOp struct {
	dst      radio.NodeID
	due      time.Duration
	shed     bool
	outcomes int
	o        sink.Outcome
}

// tenantGen is one tenant's open-loop Poisson stream: each command is
// submitted at its due time whatever the backlog, and timed from it.
type tenantGen struct {
	name  string
	eng   *sim.Engine
	sub   submitter
	dist  workload.Dist
	rng   *rand.Rand
	rate  float64
	total int
	ops   []*svcOp
	err   error
	// resolved is called inside the simulation the first time each
	// command resolves (outcome or shed).
	resolved func()
}

func (g *tenantGen) start() { g.eng.Schedule(g.gap(), g.tick) }

func (g *tenantGen) gap() time.Duration {
	return max(time.Duration(g.rng.ExpFloat64()/g.rate*float64(time.Second)), time.Millisecond)
}

func (g *tenantGen) tick() {
	o := &svcOp{dst: g.dist.Pick(g.rng), due: g.eng.Now()}
	g.ops = append(g.ops, o)
	if len(g.ops) < g.total {
		g.eng.Schedule(g.gap(), g.tick)
	}
	_, err := g.sub.Submit(o.dst, fmt.Sprintf("%s-%d", g.name, len(g.ops)), func(out sink.Outcome) {
		o.outcomes++
		o.o = out
		if o.outcomes == 1 {
			g.resolved()
		}
	})
	switch {
	case errors.Is(err, cmdsvc.ErrShed):
		o.shed = true
		g.resolved()
	case err != nil && g.err == nil:
		g.err = err
	}
}

// hotSubtree returns the hot tenant's targets: the CTP subtree of the
// node with the smallest subtree that still holds a quarter of the
// destinations (ties to the lowest id) — a branch deep enough that its
// members share long code prefixes, wide enough to carry real load.
func hotSubtree(net *experiment.Net, nodes []radio.NodeID) []radio.NodeID {
	n := len(net.Stacks)
	ancestors := func(id radio.NodeID, fn func(radio.NodeID)) {
		for cur, hops := id, 0; hops <= n; hops++ {
			fn(cur)
			p := net.Stacks[cur].Ctp.Parent()
			if p == net.Sink || p == ctp.NoParent || int(p) >= n {
				return
			}
			cur = p
		}
	}
	size := make([]int, n)
	for _, id := range nodes {
		ancestors(id, func(a radio.NodeID) { size[a]++ })
	}
	root, want := radio.NodeID(0), (len(nodes)+3)/4
	best := n + 1
	for _, id := range nodes {
		if size[id] >= want && size[id] < best {
			root, best = id, size[id]
		}
	}
	var hot []radio.NodeID
	for _, id := range nodes {
		ancestors(id, func(a radio.NodeID) {
			if a == root {
				hot = append(hot, id)
			}
		})
	}
	return hot
}

// phaseEnd is the simulation state when a replication's workload phase
// ended: at the last command's resolution, or at the horizon.
type phaseEnd struct {
	at        time.Duration
	on        []time.Duration
	tx        uint64
	processed uint64
}

func snapshot(net *experiment.Net) *phaseEnd {
	return &phaseEnd{at: net.Eng.Now(), on: onTimes(net), tx: controlTx(net), processed: net.Eng.Processed()}
}

// runService drives the command service: per replication a warmup,
// service assembly, then two open-loop tenants — one aimed at a hot
// subtree (shared code prefixes, so batches fill), one uniform.
func runService(w *workloadDef, seed uint64, in *instrument) (*unit, error) {
	p := w.svc
	u := &unit{digest: newDigest()}
	for rep := 0; rep < w.reps; rep++ {
		scn := w.scenario(seed, rep)
		debug.FreeOSMemory()
		pc := probe(probing)
		t0 := now()
		net, err := experiment.Build(configFor(scn, w.proto))
		if err != nil {
			return nil, err
		}
		setup := t0.since()
		u.build += setup.wall
		if in != nil {
			in.attach(net, scn.Tele, w.rescueOn(scn))
		}
		sample := func() { u.layer.sampleQueue(net.Eng) }

		t1 := now()
		net.Start()
		if err := runChunked(net, p.warmup, p.chunk, sample, nil); err != nil {
			return nil, err
		}
		simc := t1.since()

		t2 := now()
		svc := assembleService(net, in)
		setup = setup.add(t2.since())

		var nodes []radio.NodeID
		for i := range net.Stacks {
			if radio.NodeID(i) != net.Sink {
				nodes = append(nodes, radio.NodeID(i))
			}
		}
		// The phase ends inside the simulation, at the last resolution,
		// so what it measures does not depend on the chunk size.
		var end *phaseEnd
		remaining := 2 * p.opsPerTenant
		resolved := func() {
			if remaining--; remaining == 0 {
				end = snapshot(net)
			}
		}
		gens := []*tenantGen{
			{name: "hot", dist: workload.Hotspot(nodes, hotSubtree(net, nodes), 0.8)},
			{name: "uniform", dist: workload.Uniform(nodes)},
		}
		for i, g := range gens {
			g.eng, g.rate, g.total, g.resolved = net.Eng, p.rate/2, p.opsPerTenant, resolved
			g.rng = sim.DeriveRNG(scn.Seed, 0x5e7c+uint64(i))
			g.sub = svc.Tenant(g.name)
			if in != nil {
				g.sub = &submitWrap{inner: svc.Tenant(g.name), tr: in.tr}
			}
		}
		start := snapshot(net)
		for _, g := range gens {
			g.start()
		}
		t3 := now()
		if err := runChunked(net, p.horizon, p.chunk, sample, func() bool { return end != nil }); err != nil {
			return nil, err
		}
		simc = simc.add(t3.since())
		if in != nil {
			in.check()
		}
		if end == nil {
			end = snapshot(net)
		}

		phase := end.at - start.at
		u.phaseSec += phase.Seconds()
		u.horizon += phase / time.Duration(w.reps)
		u.nodeSimSec += float64(len(net.Stacks)) * net.Eng.Now().Seconds()
		u.tx += end.tx - start.tx
		u.addDuty(net.Sink, start.on, end.on, phase)
		u.layer.readNet(net)
		u.readService(svc, gens, rep)
		u.digest.add("rep", rep, end.at, end.processed, end.on)
		u.reps = append(u.reps, repCost{total: t0.since(), setup: setup, sim: simc, probe: pc})
	}
	return u, nil
}

// readService folds one replication's command outcomes into the unit and
// checks that every command resolved exactly once.
func (u *unit) readService(svc *cmdsvc.Service, gens []*tenantGen, rep int) {
	lc := &u.layer
	ss := svc.Scheduler().Stats()
	lc.sinkRetried += ss.Retried
	lc.sinkFailed += ss.Failed
	lc.sinkUnroutable += ss.Unroutable
	lc.sinkExpired += ss.Expired
	bs, cs := svc.BatcherStats(), svc.CacheStats()
	lc.batches += bs.Batches
	lc.batchedCmds += bs.BatchedCmds
	lc.cacheHits += cs.Hits
	lc.cacheMisses += cs.Misses
	stats := svc.Tenants()
	var okSched uint64
	for _, g := range gens {
		if g.err != nil {
			u.accountingErr = fmt.Errorf("service rep %d tenant %s: %w", rep, g.name, g.err)
		}
		var ok, failed, shed, unresolved uint64
		for j, o := range g.ops {
			u.digest.add("op", rep, g.name, j, o.dst, o.due, o.shed, o.outcomes, o.o.OK, o.o.Attempts, o.o.EnqueuedAt, o.o.DoneAt)
			switch {
			case o.shed:
				shed++
				u.ops = append(u.ops, op{})
			case o.outcomes == 0:
				unresolved++
				u.ops = append(u.ops, op{})
			case o.outcomes > 1:
				u.accountingErr = fmt.Errorf("service rep %d: command %s-%d resolved %d times", rep, g.name, j+1, o.outcomes)
				u.ops = append(u.ops, op{})
			case o.o.OK:
				ok++
				u.ops = append(u.ops, op{ok: true, latency: o.o.DoneAt - o.due})
			default:
				failed++
				u.ops = append(u.ops, op{})
			}
			if o.outcomes == 1 {
				lc.parked = append(lc.parked, (o.o.EnqueuedAt - o.due).Seconds())
				lc.totals = append(lc.totals, o.o.Total().Seconds())
				if o.o.Admitted {
					lc.queueWaits = append(lc.queueWaits, o.o.QueueWait().Seconds())
				}
			}
		}
		if u.tenantOps == nil {
			u.tenantOps = make(map[string][]*svcOp)
		}
		u.tenantOps[g.name] = append(u.tenantOps[g.name], g.ops...)
		okSched += ok
		var ts cmdsvc.TenantStats
		for _, s := range stats {
			if s.Name == g.name {
				ts = s
			}
		}
		lc.shed += ts.Shed
		lc.delayed += ts.Delayed
		switch {
		case ok+failed+shed+unresolved != uint64(g.total):
			u.accountingErr = fmt.Errorf("service rep %d tenant %s: ok %d + failed %d + shed %d + unresolved %d != %d ops", rep, g.name, ok, failed, shed, unresolved, g.total)
		case ts.Submitted != uint64(g.total) || ts.Shed != shed || ts.OK != ok || ts.Completed != ok+failed:
			u.accountingErr = fmt.Errorf("service rep %d tenant %s: service counts %+v disagree with outcomes ok %d failed %d shed %d", rep, g.name, ts, ok, failed, shed)
		}
	}
	if ss.CompletedOK != okSched {
		u.accountingErr = fmt.Errorf("service rep %d: scheduler completed-ok %d != %d ok outcomes", rep, ss.CompletedOK, okSched)
	}
}

// ---- grid1k-form --------------------------------------------------------

const (
	formWindow = 60 * time.Second
	formChunk  = 5 * time.Second
)

// runForm forms the 1024-node field for a fixed window with no commands.
// An op is one non-sink node; it completes at the first chunk boundary
// where the sink holds the node's code (SinkTele().DstCode).
func runForm(w *workloadDef, seed uint64, in *instrument) (*unit, error) {
	return runFormWindow(w, seed, in, formWindow, formChunk)
}

func runFormWindow(w *workloadDef, seed uint64, in *instrument, window, step time.Duration) (*unit, error) {
	u := &unit{horizon: window, digest: newDigest()}
	scn := w.scenario(seed, 0)
	debug.FreeOSMemory()
	pc := probe(probing)
	t0 := now()
	net, err := experiment.Build(configFor(scn, w.proto))
	if err != nil {
		return nil, err
	}
	setup := t0.since()
	u.build = setup.wall
	if in != nil {
		in.attach(net, scn.Tele, w.rescueOn(scn))
	}
	heldAt := make([]time.Duration, len(net.Stacks))
	for i := range heldAt {
		heldAt[i] = -1
	}
	te := net.SinkTele()
	sample := func() {
		u.layer.sampleQueue(net.Eng)
		for i, at := range heldAt {
			if at < 0 && radio.NodeID(i) != net.Sink {
				if _, ok := te.DstCode(radio.NodeID(i)); ok {
					heldAt[i] = net.Eng.Now()
				}
			}
		}
	}
	t1 := now()
	net.Start()
	if err := runChunked(net, window, step, sample, nil); err != nil {
		return nil, err
	}
	simc := t1.since()
	if in != nil {
		in.check()
	}
	var helds []bool
	for i, at := range heldAt {
		if radio.NodeID(i) == net.Sink {
			continue
		}
		_, held := te.DstCode(radio.NodeID(i))
		helds = append(helds, held)
		if held != (at >= 0) {
			u.accountingErr = fmt.Errorf("form: node %d held at end %v, first seen %v", i, held, at)
		}
		u.ops = append(u.ops, op{ok: held, latency: at})
	}
	u.phaseSec = window.Seconds()
	u.nodeSimSec = float64(len(net.Stacks)) * net.Eng.Now().Seconds()
	u.addDuty(net.Sink, make([]time.Duration, len(net.Stacks)), onTimes(net), net.Eng.Now())
	u.layer.readNet(net)
	// Formation has no commands; its per-op cost is the link-layer sends
	// (beacons, coding messages, code reports) every node makes.
	u.tx = u.layer.macSends
	// The state digest leaves out the first-seen times, which are
	// quantized to the sampling chunk.
	u.state = newDigest()
	u.state.add("form", helds, net.Eng.Processed(), onTimes(net))
	u.digest.add("form", heldAt, net.Eng.Processed(), onTimes(net))
	u.reps = []repCost{{total: t0.since(), setup: setup, sim: simc, probe: pc}}
	return u, nil
}
