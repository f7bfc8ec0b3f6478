package experiment

import (
	"errors"
	"fmt"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// ServiceOpts tunes a command-service study: an open-loop offered-load
// ramp driven twice per point — once through a transparent service
// (plain scheduler semantics) and once with prefix batching, the route
// cache, and backpressure on — so every row reports the service's win
// over the baseline at identical offered load.
type ServiceOpts struct {
	// LoadOpts apply identically to both sub-runs; Ops counts the
	// operations of one sub-run, and Rates are normally a ramp ending past
	// the baseline's saturation point. Buffered commands hold their
	// scheduler slots, so batches can only grow to min(Window, MaxBatch)
	// members — and to min(PerGroup, MaxBatch) when the members share one
	// serialization group. The window timer still flushes whatever
	// accumulated, so smaller limits shrink batches rather than stall them.
	// Trace collects baseline sub-run events into EventsBase
	// (byte-comparable to an open-loop throughput study) and service
	// sub-run events — including svc.batch spans — into EventsSvc.
	LoadOpts

	// Service knobs (the batching sub-run only).
	BatchWindow time.Duration
	BatchBits   int
	MaxBatch    int
	CacheTTL    time.Duration
	CacheCap    int
	QueueDepth  int
	HighWater   int
	Policy      string // "reject" or "delay"
}

// DefaultServiceOpts returns a two-point ramp with batching, caching, and
// backpressure sized for the reference scenarios. The backpressure
// defaults deliberately pace rather than refuse: a low high-water mark
// with the delay policy keeps the scheduler's queue shallow under
// overload, which is where the batcher and the route cache earn their
// keep (a congested field fails rescue-free sends and fragments
// batches; a paced one completes them). The batch window is short —
// admissions arrive in bursts under pacing, so half a second is enough
// to coalesce them, and buffered members hold scheduler slots for the
// whole window — and the 3-bit prefix trades deeper carriers for more
// batching opportunities.
func DefaultServiceOpts() ServiceOpts {
	return ServiceOpts{
		LoadOpts: LoadOpts{
			Warmup:    4 * time.Minute,
			Ops:       120,
			Rates:     []float64{0.5, 1.8},
			Dist:      "hotspot",
			Window:    16,
			PerGroup:  8,
			GroupBits: 6,
			Retries:   1,
			MaxRun:    30 * time.Minute,
		},
		BatchWindow: 500 * time.Millisecond,
		BatchBits:   3,
		MaxBatch:    16,
		CacheTTL:    5 * time.Minute,
		CacheCap:    256,
		QueueDepth:  128,
		HighWater:   6,
		Policy:      "delay",
	}
}

// Transparent reports that every service feature is disabled: no batch
// window, no cache TTL, no admission bounds. A transparent study runs one
// sub-run per point on the throughput study's exact ticket range, so its
// telemetry trace is byte-identical to `-study throughput -workload open`
// over the same seed, rates, and scheduler knobs.
func (o ServiceOpts) Transparent() bool {
	return o.BatchWindow <= 0 && o.CacheTTL <= 0 && o.QueueDepth <= 0 && o.HighWater <= 0
}

// serviceConfig converts the service knobs into a cmdsvc.Config.
func (o ServiceOpts) serviceConfig() cmdsvc.Config {
	return cmdsvc.Config{
		Batch: cmdsvc.BatcherConfig{
			Window:   o.BatchWindow,
			Bits:     o.BatchBits,
			MaxBatch: o.MaxBatch,
		},
		Cache:      cmdsvc.CacheConfig{TTL: o.CacheTTL, Cap: o.CacheCap},
		QueueDepth: o.QueueDepth,
		HighWater:  o.HighWater,
		Policy:     cmdsvc.ShedPolicy(o.Policy),
	}
}

// ServiceSide is one sub-run of a load point: the transparent baseline
// or the full service.
type ServiceSide struct {
	// Offered and Goodput are resolved and completed operations per second
	// (the two sides' offered loads differ only through shed timing).
	Offered float64
	Goodput float64

	OK         int
	Failed     int
	Unresolved int

	// Latency holds the end-to-end sink latencies (seconds) of successful
	// operations.
	Latency *stats.Series
}

// add sums o's counters and rates into s and pools both latency series
// into a fresh one. It never appends to a series in place, so a side that
// shares its series with the other side (a transparent study reuses the
// baseline sub-run as the service sub-run) is never pooled twice.
func (s *ServiceSide) add(o ServiceSide) {
	s.Offered += o.Offered
	s.Goodput += o.Goodput
	s.OK += o.OK
	s.Failed += o.Failed
	s.Unresolved += o.Unresolved
	lat := &stats.Series{}
	lat.Merge(s.Latency)
	lat.Merge(o.Latency)
	s.Latency = lat
}

// ServicePoint is one offered-load point: paired baseline and service
// sub-runs at the same rate.
type ServicePoint struct {
	// Label names the swept rate ("rate=2.00").
	Label string
	Ops   int

	Base ServiceSide
	Svc  ServiceSide

	// Shed and Delayed count admission-gate decisions in the service
	// sub-run (per-tenant detail lives in the telemetry trace).
	Shed    int
	Delayed int

	// Batches and BatchedCmds mirror the batcher counters; CacheHits and
	// CacheMisses the route-cache lookups.
	Batches     int
	BatchedCmds int
	CacheHits   int
	CacheMisses int
}

// Speedup returns the goodput ratio service / baseline (0 when the
// baseline completed nothing).
func (p *ServicePoint) Speedup() float64 {
	if p.Base.Goodput == 0 {
		return 0
	}
	return p.Svc.Goodput / p.Base.Goodput
}

// MeanBatch returns the mean members per flushed carrier.
func (p *ServicePoint) MeanBatch() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchedCmds) / float64(p.Batches)
}

// CacheHitRate returns hits / (hits + misses).
func (p *ServicePoint) CacheHitRate() float64 {
	if p.CacheHits+p.CacheMisses == 0 {
		return 0
	}
	return float64(p.CacheHits) / float64(p.CacheHits+p.CacheMisses)
}

// ServiceResult aggregates one command-service study.
type ServiceResult struct {
	Proto    string
	Scenario string
	Dist     string
	Points   []*ServicePoint
	// EventsBase is the baseline sub-runs' sink-layer telemetry — with
	// every service feature off it is byte-comparable to an open-loop
	// throughput study over the same seed and rates. EventsSvc is the
	// service sub-runs', carrying the svc.batch membership spans.
	EventsBase []telemetry.Event
	EventsSvc  []telemetry.Event
}

// subRunMetrics is what one sub-run hands back to the point assembler.
type subRunMetrics struct {
	side    ServiceSide
	events  []telemetry.Event
	shed    int
	delayed int
	batch   cmdsvc.BatcherStats
	cache   cmdsvc.CacheStats
}

// runServicePoint drives one sub-run: an open-loop Poisson workload at
// the point's rate through a command service over the sink scheduler.
// The load driver derives the same stream the throughput study does for
// this point index, so the baseline sub-run is an exact open-loop replay.
// svcCfg zero-valued gives the transparent baseline.
func runServicePoint(scn Scenario, proto Proto, opts ServiceOpts, pi int, svcCfg cmdsvc.Config, ticketBase uint32) (*subRunMetrics, error) {
	var svc *cmdsvc.Service
	run, err := opts.runPoint(scn, proto, pi, 0, ticketBase, func(net *Net, cfg sink.Config) commandPlane {
		svc = cmdsvc.New(net.Eng, net.SinkCtrl(), cfg, svcCfg)
		svc.SetTelemetry(nil, net.Bus, net.Sink)
		svc.AttachFaults(net.FaultInjector())
		return svc
	})
	if err != nil {
		return nil, err
	}
	m := &subRunMetrics{
		side: ServiceSide{
			Offered:    run.offered,
			Goodput:    run.goodput,
			OK:         run.ok,
			Unresolved: run.unresolved,
			Latency:    &stats.Series{},
		},
		events: run.events,
		batch:  svc.BatcherStats(),
		cache:  svc.CacheStats(),
	}
	for _, o := range run.outcomes {
		switch {
		case o.OK:
			m.side.Latency.Add(o.Total().Seconds())
		case errors.Is(o.Err, cmdsvc.ErrShed):
			m.shed++
		default:
			m.side.Failed++
		}
	}
	for _, tn := range svc.Tenants() {
		m.delayed += int(tn.Delayed)
	}
	return m, nil
}

// RunServiceStudy ramps offered load against the command service: each
// rate point runs the identical Poisson workload twice on fresh networks
// — transparent baseline, then full service — and reports goodput,
// shedding, batching, and cache effectiveness side by side.
// Deterministic per seed: the same seed yields byte-identical results
// under serial and parallel replication.
func RunServiceStudy(scn Scenario, proto Proto, opts ServiceOpts) (*ServiceResult, error) {
	if len(opts.Rates) == 0 {
		return nil, fmt.Errorf("experiment: service study with no rates")
	}
	res := &ServiceResult{
		Proto:    proto.String(),
		Scenario: scn.Name,
		Dist:     opts.Dist,
	}
	if res.Dist == "" {
		res.Dist = "uniform"
	}
	for pi, rate := range opts.Rates {
		// Baseline: zero service config, and the exact ticket range the
		// throughput study would use, so traces line up byte for byte.
		base, err := runServicePoint(scn, proto, opts, pi, cmdsvc.Config{}, uint32(pi)<<20)
		if err != nil {
			return nil, err
		}
		// Service: batching + cache + backpressure, disjoint ticket range.
		// With every feature disabled the baseline IS the service run —
		// reuse it so a transparent study stays a single exact replay.
		svc := base
		if !opts.Transparent() {
			svc, err = runServicePoint(scn, proto, opts, pi, opts.serviceConfig(), uint32(pi)<<20|1<<19)
			if err != nil {
				return nil, err
			}
		}
		res.Points = append(res.Points, &ServicePoint{
			Label:       fmt.Sprintf("rate=%.2f", rate),
			Ops:         opts.Ops,
			Base:        base.side,
			Svc:         svc.side,
			Shed:        svc.shed,
			Delayed:     svc.delayed,
			Batches:     int(svc.batch.Batches),
			BatchedCmds: int(svc.batch.BatchedCmds),
			CacheHits:   int(svc.cache.Hits),
			CacheMisses: int(svc.cache.Misses),
		})
		res.EventsBase = append(res.EventsBase, base.events...)
		res.EventsSvc = append(res.EventsSvc, svc.events...)
	}
	return res, nil
}

// MergeServiceResults merges per-seed studies point-by-point in slice
// (seed) order: counters sum, sample series pool, and rates average.
func MergeServiceResults(results []*ServiceResult) *ServiceResult {
	var merged *ServiceResult
	eventsBase := mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsBase })
	eventsSvc := mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsSvc })
	for _, res := range results {
		if merged == nil {
			merged = res
			continue
		}
		for i, pt := range res.Points {
			m := merged.Points[i]
			m.Base.add(pt.Base)
			m.Svc.add(pt.Svc)
			m.Ops += pt.Ops
			m.Shed += pt.Shed
			m.Delayed += pt.Delayed
			m.Batches += pt.Batches
			m.BatchedCmds += pt.BatchedCmds
			m.CacheHits += pt.CacheHits
			m.CacheMisses += pt.CacheMisses
		}
	}
	if merged == nil {
		return nil
	}
	n := float64(len(results))
	for _, m := range merged.Points {
		for _, side := range []*ServiceSide{&m.Base, &m.Svc} {
			side.Offered /= n
			side.Goodput /= n
		}
	}
	merged.EventsBase = eventsBase
	merged.EventsSvc = eventsSvc
	return merged
}
