// Command teleadjust-bench regenerates every table and figure of the
// paper's evaluation section:
//
//	fig6a/fig6b/fig6c/fig6d  — path-code studies on Tight-grid and
//	                           Sparse-linear (225 nodes)
//	table2                   — indoor code length by hop
//	fig7/fig8/fig9/fig10,
//	table3                   — protocol comparison (Tele, Re-Tele, Drip,
//	                           RPL) on the 40-node indoor testbed, clean
//	                           channel 26 and WiFi-interfered channel 19
//	ablation                 — reserve-policy and opportunistic-forwarding
//	                           ablations
//	scope                    — the one-to-many extension: subtree-scoped
//	                           floods vs per-member unicast
//
// Use -exp to select one experiment, -quick for a fast pass, -csv DIR to
// also emit plot-ready CSV files. -cpuprofile, -memprofile and -exectrace
// bracket the selected experiments with pprof/runtime-trace captures
// (see make profile).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
	"teleadjust/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teleadjust-bench:", err)
		os.Exit(1)
	}
}

type settings struct {
	exp        string
	quick      bool
	seeds      int
	seed       uint64
	packet     int
	parallel   int
	reps       int
	csvDir     string
	cpuprofile string
	memprofile string
	exectrace  string
}

func run() (retErr error) {
	var s settings
	flag.StringVar(&s.exp, "exp", "all", "experiment: fig6, table2, compare26, compare19, ablation, scope, replication, all")
	flag.BoolVar(&s.quick, "quick", false, "reduced durations and seed counts")
	flag.IntVar(&s.seeds, "seeds", 3, "seeds per protocol for comparison studies")
	flag.Uint64Var(&s.seed, "seed", 1, "base seed")
	flag.IntVar(&s.packet, "packets", 40, "control packets per run")
	flag.IntVar(&s.parallel, "parallel", 0, "replication workers for multi-seed studies (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&s.reps, "reps", 8, "replications for the replication speedup experiment")
	flag.StringVar(&s.csvDir, "csv", "", "also write plot-ready CSV files into this directory")
	flag.StringVar(&s.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	flag.StringVar(&s.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&s.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if s.csvDir != "" {
		if err := os.MkdirAll(s.csvDir, 0o755); err != nil {
			return err
		}
	}
	stopProf, err := prof.Start(prof.Config{CPU: s.cpuprofile, Mem: s.memprofile, Trace: s.exectrace})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()

	if s.quick {
		s.seeds = 1
		s.packet = 15
	}
	steps := map[string]func(settings) error{
		"fig6":        runFig6,
		"table2":      runTable2,
		"compare26":   func(st settings) error { return runComparison(st, false) },
		"compare19":   func(st settings) error { return runComparison(st, true) },
		"ablation":    runAblation,
		"scope":       runScope,
		"replication": runReplication,
	}
	order := []string{"fig6", "table2", "compare26", "compare19", "ablation", "scope"}
	if s.exp != "all" {
		fn, ok := steps[s.exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", s.exp)
		}
		return fn(s)
	}
	for _, name := range order {
		if err := steps[name](s); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	return nil
}

// runFig6 regenerates Fig 6a–d on both 225-node simulation fields. The
// sparse strip is tens of hops deep and needs a longer construction phase.
func runFig6(s settings) error {
	cases := []struct {
		build func(uint64) experiment.Scenario
		dur   time.Duration
	}{
		{experiment.TightGrid, 10 * time.Minute},
		{experiment.SparseLinear, 30 * time.Minute},
	}
	for _, tc := range cases {
		dur := tc.dur
		if s.quick {
			dur /= 2
		}
		res, err := experiment.RunCodingStudy(tc.build(s.seed), dur)
		if err != nil {
			return err
		}
		experiment.WriteCodingReport(os.Stdout, res)
		err = writeCSV(s, "coding_"+res.Scenario+".csv", func(w io.Writer) error { return experiment.WriteCodingCSV(w, res) })
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// writeCSV exports one study table into the -csv directory when set.
func writeCSV(s settings, name string, write func(w io.Writer) error) error {
	if s.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(s.csvDir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTable2 regenerates the indoor code-length table.
func runTable2(s settings) error {
	dur := 8 * time.Minute
	if s.quick {
		dur = 4 * time.Minute
	}
	res, err := experiment.RunCodingStudy(experiment.Indoor(s.seed, false), dur)
	if err != nil {
		return err
	}
	fmt.Println("Table II — indoor testbed code length by hop (paper: avg 4.2→15.8 bits over 6 hops, max ≤20):")
	experiment.WriteCodingReport(os.Stdout, res)
	return nil
}

// runComparison regenerates Fig 7–10 and Table III on one channel.
func runComparison(s settings, wifi bool) error {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 7 * time.Minute
	opts.Packets = s.packet
	opts.Interval = 20 * time.Second
	if s.quick {
		opts.Warmup = 5 * time.Minute
	}
	seeds := make([]uint64, s.seeds)
	for i := range seeds {
		seeds[i] = s.seed + uint64(i)
	}
	build := func(seed uint64) experiment.Scenario {
		scn := experiment.Indoor(seed, wifi)
		scn.TuneControlTimeouts(18 * time.Second)
		return scn
	}
	rep := experiment.Replicator{Workers: s.parallel}
	var results []*experiment.ControlResult
	for _, proto := range []experiment.Proto{
		experiment.ProtoTele,
		experiment.ProtoReTele,
		experiment.ProtoDrip,
		experiment.ProtoRPL,
	} {
		res, err := experiment.Replicate(rep, seeds, func(seed uint64) (*experiment.ControlResult, error) {
			return experiment.RunControlStudy(build(seed), proto, opts)
		}, experiment.MergeControlResults)
		if err != nil {
			return err
		}
		results = append(results, res)
		experiment.WriteControlReport(os.Stdout, res)
		name := fmt.Sprintf("control_%s_%s.csv", res.Scenario, res.Proto)
		err = writeCSV(s, name, func(w io.Writer) error { return experiment.WriteControlCSV(w, res) })
		if err != nil {
			return err
		}
		fmt.Println()
	}
	experiment.WriteComparisonSummary(os.Stdout, results)
	return nil
}

// runAblation evaluates the design choices DESIGN.md calls out: the
// Algorithm 1 reserve policy (code length vs extension count) and
// opportunistic forwarding (PDR vs the strict-path variant).
func runAblation(s settings) error {
	dur := 6 * time.Minute
	if s.quick {
		dur = 3 * time.Minute
	}
	fmt.Println("--- Ablation: Algorithm 1 reserve policy (indoor testbed) ---")
	fmt.Printf("%-10s %14s %14s %12s\n", "policy", "avg code bits", "max code bits", "extensions")
	for _, p := range []struct {
		name   string
		policy core.ReservePolicy
	}{
		{"tight", core.TightReserve},
		{"default", core.DefaultReserve},
		{"generous", core.GenerousReserve},
	} {
		scn := experiment.Indoor(s.seed, false)
		scn.Tele.Reserve = p.policy
		res, err := experiment.RunCodingStudy(scn, dur)
		if err != nil {
			return err
		}
		var sum, count, maxBits float64
		for _, k := range res.CodeLenByHop.Keys() {
			series := res.CodeLenByHop.Get(k)
			sum += series.Mean() * float64(series.Count())
			count += float64(series.Count())
			if series.Max() > maxBits {
				maxBits = series.Max()
			}
		}
		avg := 0.0
		if count > 0 {
			avg = sum / count
		}
		fmt.Printf("%-10s %14.1f %14.0f %12s\n", p.name, avg, maxBits, "(see stats)")
	}

	fmt.Println("\n--- Ablation: opportunistic vs strict-path forwarding ---")
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 6 * time.Minute
	opts.Packets = s.packet
	opts.Interval = 20 * time.Second
	build := func(seed uint64) experiment.Scenario {
		scn := experiment.Indoor(seed, false)
		scn.TuneControlTimeouts(18 * time.Second)
		return scn
	}
	var results []*experiment.ControlResult
	for _, proto := range []experiment.Proto{experiment.ProtoTele, experiment.ProtoTeleStrict} {
		res, err := experiment.RunControlStudy(build(s.seed), proto, opts)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	experiment.WriteComparisonSummary(os.Stdout, results)
	return nil
}

// runScope evaluates the one-to-many extension: subtree-scoped floods vs
// per-member unicast control.
func runScope(s settings) error {
	opts := experiment.DefaultScopeOpts()
	if s.quick {
		opts.Warmup = 5 * time.Minute
		opts.Operations = 2
	}
	res, err := experiment.RunScopeStudy(experiment.Indoor(s.seed, false), opts)
	if err != nil {
		return err
	}
	fmt.Println("--- Extension: subtree-scoped dissemination (indoor testbed) ---")
	fmt.Printf("operations=%d members=%d acked=%d mean-coverage=%.1f%%\n",
		res.Operations, res.Members, res.Acked, 100*res.Coverage.Mean())
	fmt.Printf("scoped flood:     %.2f tx per addressed member\n", res.TxPerMember)
	fmt.Printf("per-member unicast: %.2f tx per addressed member\n", res.UnicastTxPerMember)
	return nil
}

// runReplication measures the wall-clock speedup of the parallel
// replication runner: the same -reps-seed control study once on one
// worker and once on the full pool, verifying the merged reports match.
func runReplication(s settings) error {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 4 * time.Minute
	opts.Packets = s.packet
	opts.Interval = 15 * time.Second
	if s.quick {
		opts.Packets = 10
	}
	seeds := experiment.DeriveSeeds(s.seed, s.reps)
	build := func(seed uint64) experiment.Scenario {
		scn := experiment.Indoor(seed, false)
		scn.TuneControlTimeouts(12 * time.Second)
		return scn
	}
	workers := s.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("--- Replication runner: %d replications, 1 vs %d workers ---\n", s.reps, workers)

	run := func(seed uint64) (*experiment.ControlResult, error) {
		return experiment.RunControlStudy(build(seed), experiment.ProtoTele, opts)
	}

	t0 := time.Now()
	serial, err := experiment.Replicate(experiment.Replicator{Workers: 1}, seeds, run, experiment.MergeControlResults)
	if err != nil {
		return err
	}
	serialDur := time.Since(t0)

	t1 := time.Now()
	par, err := experiment.Replicate(experiment.Replicator{Workers: workers}, seeds, run, experiment.MergeControlResults)
	if err != nil {
		return err
	}
	parDur := time.Since(t1)

	var sb, pb strings.Builder
	experiment.WriteControlReport(&sb, serial)
	experiment.WriteControlReport(&pb, par)
	match := "byte-identical"
	if sb.String() != pb.String() {
		match = "MISMATCH (determinism bug)"
	}
	experiment.WriteControlReport(os.Stdout, par)
	fmt.Printf("serial:   %v\nparallel: %v (%d workers)\nspeedup:  %.2fx — merged reports %s\n",
		serialDur.Round(time.Millisecond), parDur.Round(time.Millisecond), workers,
		float64(serialDur)/float64(parDur), match)
	if match != "byte-identical" {
		return fmt.Errorf("parallel replication diverged from serial")
	}
	return nil
}
