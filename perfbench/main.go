// Command perfbench is the repository benchmark: it runs one reference
// workload of the simulator for a seed and prints its end-to-end metrics
// (untraced) or its per-layer split (traced), checking the simulated
// outcome as it goes. BENCHMARK.json at the repository root names the
// workloads and metrics; NOTES.md beside this file explains them.
//
//	perfbench --workload line-retele --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

// setup_s takes each replication's cheapest of at least minPasses
// set-up samples, and of at least minSetupTime's worth: units that ran
// supply theirs, set-up-only passes fill the rest. A workload whose
// set-up takes milliseconds thus gets hundreds of samples.
const (
	minPasses    = 8
	minSetupTime = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (line-retele, refgrid-service, grid1k-form)")
	seed := flag.Uint64("seed", 1, "workload seed; replication seeds derive from it")
	seconds := flag.Int("seconds", 20, "how long to measure (whole units; at least one)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	flag.Parse()
	// One processor: the garbage collector shares the simulation's core
	// instead of spilling onto the second one, whose availability on a
	// shared host is not the program's doing, and the host probe times
	// the same core the simulation runs on.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runUntraced(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// measure runs one unit and adds its wall time (host probes included)
// and allocation.
func measure(w *workloadDef, seed uint64, in *instrument) (*unit, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	u, err := w.run(w, seed, in)
	if err != nil {
		return nil, err
	}
	u.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	u.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return u, nil
}

// check reports the first correctness failure of a unit, or nil.
func check(u *unit, want string) error {
	if u.accountingErr != nil {
		return u.accountingErr
	}
	if u.attempted() == 0 {
		return fmt.Errorf("no ops attempted")
	}
	if got := u.digest.sum(); want != "" && got != want {
		return fmt.Errorf("outcome digest %s differs from %s for the same seed", got, want)
	}
	return nil
}

// runUntraced repeats the workload's unit for the measuring time (at
// least once) and reports the end-to-end metrics. Host time is the sum,
// over replications, of each replication's cheapest pass (bestSum),
// scaled to the reference host by the run's host probes (hostScale).
// Simulated-side values come from the first unit, and every unit of a
// seed must reproduce its digest exactly.
func runUntraced(w *workloadDef, seed uint64, budget time.Duration) (*result, error) {
	start := time.Now()
	var units []*unit
	var peakRSS float64
	for {
		u, err := measure(w, seed, nil)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		if len(units) == 1 {
			// The peak keeps creeping up over later passes (heap
			// fragmentation), so it is read once the first unit is done.
			peakRSS = peakRSSMB()
			probing = true
			probe(true) // makes the probe's pool outside any unit's allocation count
		}
		if time.Since(start)+u.wall > budget {
			break
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	first := units[0]
	want := first.digest.sum()
	var allocs []float64
	for _, u := range units {
		if err := check(u, want); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			res.Correct = false
		}
		res.Attempted += u.attempted()
		allocs = append(allocs, float64(u.allocBytes)/1e6)
	}
	setups := column(units, setupPart)
	for t0 := time.Now(); len(setups) < minPasses || time.Since(t0) < minSetupTime; {
		s, err := w.setupOnce(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	probing = false
	scale, _ := hostScale(topUp(probeWalls(units)))
	total := bestSum(column(units, totalPart))
	simc := bestSum(column(units, simPart))
	setup := bestSum(setups)
	m := res.Metrics
	m["wall_s"] = metric{total.wall.Seconds() * scale, "s"}
	m["node_s_per_s"] = metric{first.nodeSimSec / (simc.wall.Seconds() * scale), "node-s/s"}
	m["setup_s"] = metric{setup.wall.Seconds() * scale, "s"}
	m["alloc_mb"] = metric{median(allocs), "MB"}
	m["peak_rss_mb"] = metric{peakRSS, "MB"}
	for k, v := range simMetrics(first) {
		m[k] = v
	}
	fmt.Printf("workload %s seed %d: %d unit(s), %d ops each, outcome digest %s, host scale %.4f\n",
		w.name, seed, len(units), first.attempted(), want, scale)
	return res, nil
}

// simMetrics are the simulated-side end-to-end metrics of one unit.
func simMetrics(u *unit) map[string]metric {
	n := float64(u.attempted())
	ok := float64(u.okCount())
	return map[string]metric{
		"ops_ok_frac":       {ok / n, "ratio"},
		"latency_p50_s":     {opPercentile(u.ops, 0.5, u.horizon), "s"},
		"latency_p90_s":     {opPercentile(u.ops, 0.9, u.horizon), "s"},
		"goodput_ops_per_s": {ok / u.phaseSec, "1/s"},
		"tx_per_op":         {float64(u.tx) / n, "count"},
		"duty_cycle":        {u.dutySum / float64(u.dutyN), "ratio"},
	}
}

// peakRSSMB returns the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runTraced runs the unit untraced, then again with every boundary
// wrapped, and reports the per-layer metrics. The two runs must produce
// the same outcome digest: the wrappers observe, they do not perturb.
func runTraced(w *workloadDef, seed uint64) (*result, error) {
	base, err := measure(w, seed, nil)
	if err != nil {
		return nil, err
	}
	in := newInstrument()
	tu, err := measure(w, seed, in)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: base.attempted() + tu.attempted(), Metrics: map[string]metric{}}
	want := base.digest.sum()
	for _, u := range []*unit{base, tu} {
		if err := check(u, want); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", w.name, err)
			res.Correct = false
		}
	}
	// Only the invariant oracle's verdict on the command service is
	// advisory: it has not been validated against batch carriers.
	if in.violations > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d invariant violations, first: %s\n",
			w.name, in.violations, strings.Join(in.samples, "; "))
		if w.assemble == nil {
			res.Correct = false
		}
	}
	m := res.Metrics
	for k, v := range layerMetrics(base) {
		m[k] = v
	}
	_, probeWall := hostScale(topUp(nil))
	host := base.spent(totalPart)
	m["host.wall_s"] = metric{host.wall.Seconds(), "s"}
	m["host.cpu_s"] = metric{host.cpu.Seconds(), "s"}
	m["host.probe_s"] = metric{probeWall.Seconds(), "s"}
	train, medium, err := standaloneSetup(w, seed)
	if err != nil {
		return nil, err
	}
	tr := in.tr
	s := func(k spanKind) float64 { return time.Duration(tr.self[k]).Seconds() }
	m["noise.train_s"] = metric{train, "s"}
	m["radio.medium_build_s"] = metric{medium, "s"}
	m["experiment.build_s"] = metric{tu.build.Seconds(), "s"}
	m["mac.upcall_s"] = metric{time.Duration(tr.incl[spanRadioUpcall]).Seconds(), "s"}
	m["mac.self_s"] = metric{s(spanRadioUpcall), "s"}
	m["ctp.upcall_s"] = metric{s(spanCtpUpcall), "s"}
	m["core.upcall_s"] = metric{s(spanCoreUpcall), "s"}
	m["core.oracle_s"] = metric{s(spanOracle), "s"}
	m["core.oracle_calls"] = metric{float64(tr.calls[spanOracle]), "count"}
	m["core.send_s"] = metric{s(spanCoreSend), "s"}
	m["cmdsvc.submit_s"] = metric{s(spanSubmit), "s"}
	tracedSim := tu.spent(simPart).wall
	m["sim.traced_s"] = metric{tracedSim.Seconds(), "s"}
	m["sim.rest_s"] = metric{(tracedSim - tr.selfSum()).Seconds(), "s"}
	for _, l := range layers {
		m["telemetry.events."+l.name] = metric{float64(in.events.n[l.l]), "count"}
	}
	m["fault.violations"] = metric{float64(in.violations), "count"}
	m["trace_overhead_frac"] = metric{tu.spent(totalPart).wall.Seconds()/host.wall.Seconds() - 1, "ratio"}
	m["trace.spans"] = metric{float64(len(tr.spans) + tr.dropped), "count"}

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d traced: outcome digest %s (untraced %s), spans in %s\n",
		w.name, seed, tu.digest.sum(), want, path)
	return res, nil
}

// layerMetrics are the per-layer counters of an untraced unit, read from
// public accessors after each network's run.
func layerMetrics(u *unit) map[string]metric {
	lc := &u.layer
	m := map[string]metric{
		"ops_failed_frac":       {1 - float64(u.okCount())/float64(u.attempted()), "ratio"},
		"sim.events":            {float64(lc.events), "count"},
		"sim.ns_per_event":      {float64(u.spent(simPart).wall.Nanoseconds()) / float64(lc.events), "ns"},
		"sim.queue_peak":        {float64(lc.queuePeak), "count"},
		"radio.tx_frames":       {float64(lc.txFrames), "count"},
		"radio.rx_ok":           {float64(lc.rxOK), "count"},
		"radio.rx_corrupt":      {float64(lc.rxCorrupt), "count"},
		"radio.rx_ok_frac":      {ratio(float64(lc.rxOK), float64(lc.rxOK+lc.rxCorrupt)), "ratio"},
		"radio.links":           {ratio(float64(lc.links), float64(lc.networks)), "count"},
		"mac.sends":             {float64(lc.macSends), "count"},
		"mac.send_fail_frac":    {ratio(float64(lc.macFailed), float64(lc.macAcked+lc.macFailed)), "ratio"},
		"mac.frame_tx_per_send": {ratio(float64(lc.frameTx), float64(lc.macSends)), "count"},
		"mac.suppressed":        {float64(lc.suppressed), "count"},
		"ctp.forwarded":         {float64(lc.ctpFwd), "count"},
		"ctp.dropped":           {float64(lc.ctpDropped), "count"},
		"core.control_sends":    {float64(lc.controlSends), "count"},
		"core.relayed":          {float64(lc.relayed), "count"},
		"core.backtracks":       {float64(lc.backtracks), "count"},
		"core.rescues":          {float64(lc.rescues), "count"},
		"core.code_changes":     {float64(lc.codeChanges), "count"},
		"core.space_ext":        {float64(lc.spaceExt), "count"},
		"sink.retried":          {float64(lc.sinkRetried), "count"},
		"sink.failed":           {float64(lc.sinkFailed), "count"},
		"sink.unroutable":       {float64(lc.sinkUnroutable), "count"},
		"sink.expired":          {float64(lc.sinkExpired), "count"},
		"sink.queue_wait_p50_s": {median(lc.queueWaits), "s"},
		"sink.total_p50_s":      {median(lc.totals), "s"},
		"cmdsvc.batches":        {float64(lc.batches), "count"},
		"cmdsvc.batch_mean":     {ratio(float64(lc.batchedCmds), float64(lc.batches)), "count"},
		"cmdsvc.cache_hit_frac": {ratio(float64(lc.cacheHits), float64(lc.cacheHits+lc.cacheMisses)), "ratio"},
		"cmdsvc.shed":           {float64(lc.shed), "count"},
		"cmdsvc.delayed":        {float64(lc.delayed), "count"},
		"cmdsvc.parked_p50_s":   {median(lc.parked), "s"},
	}
	for _, name := range []string{"hot", "uniform"} {
		var ops []op
		for _, o := range u.tenantOps[name] {
			ops = append(ops, op{ok: !o.shed && o.outcomes == 1 && o.o.OK, latency: o.o.DoneAt - o.due})
		}
		ok := 0
		for _, o := range ops {
			if o.ok {
				ok++
			}
		}
		lat := 0.0
		if len(ops) > 0 {
			lat = opPercentile(ops, 0.5, u.horizon)
		}
		m["cmdsvc."+name+".ok"] = metric{float64(ok), "count"}
		m["cmdsvc."+name+".latency_p50_s"] = metric{lat, "s"}
	}
	return m
}

// standaloneSetup times the workload's two heavy set-up calls on their
// own, with the first replication's inputs: CPM training (zero for a
// quiet-channel scenario, which trains nothing) and medium construction.
// Each is the median of three calls.
func standaloneSetup(w *workloadDef, seed uint64) (train, medium float64, err error) {
	scn := w.scenario(seed, 0)
	var model *noise.Model
	var trains, media []float64
	for i := 0; i < 3; i++ {
		if scn.NoiseSeed != 0 {
			profile := noise.MeyerHeavy()
			if scn.NoiseProfile != nil {
				profile = *scn.NoiseProfile
			}
			trace := noise.GenerateTraceProfile(60000, scn.NoiseSeed, profile)
			t0 := time.Now()
			model = noise.Train(trace)
			trains = append(trains, time.Since(t0).Seconds())
		}
		t0 := time.Now()
		if _, err := radio.NewMedium(sim.NewEngine(), scn.Dep, model, scn.Radio, scn.Seed); err != nil {
			return 0, 0, fmt.Errorf("standalone medium build: %w", err)
		}
		media = append(media, time.Since(t0).Seconds())
	}
	return median(trains), median(media), nil
}
