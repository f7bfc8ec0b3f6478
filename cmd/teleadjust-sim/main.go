// Command teleadjust-sim runs a single TeleAdjusting simulation scenario
// and prints its metrics: a coding study (path-code length, convergence,
// reverse hops), a control study (PDR, latency, duty cycle, transmission
// counts) for one protocol, a scoped-dissemination study, a throughput
// study sweeping offered control load through the sink command plane, or
// a coding-schemes study comparing tree-coding codecs side by side, or a
// command-service study ramping open-loop load through the persistent
// sink front-end (prefix batching, route-freshness cache, backpressure)
// against a transparent baseline.
// With -reps > 1 the study is replicated over consecutive seeds and the
// replications run concurrently on -parallel workers; the merged result
// is identical to a serial run.
//
// TeleAdjusting variants accept -codec to swap the tree-coding scheme
// (paper, treeexplorer, huffman); the coding-schemes study instead sweeps
// the -codecs list over one or more -scenario entries (comma-separated).
//
// Control studies can capture the unified telemetry stream: -trace
// exports every operation-lifecycle event as JSONL (replication-merged,
// byte-identical regardless of -parallel), -trace-sample thins that
// export to every 1-in-N operation (whole spans kept) so traces stay
// usable on 1k-node fields, and -trace-op renders the per-operation span
// trees for one destination node to stdout. Throughput studies export
// the sink-layer command-plane events through -trace and the per-point
// sweep through -csv.
//
// The observability surface watches a run converge: -progress prints one
// live windowed status line per period to stderr (nodes coded/reporting,
// ops issued/resolved/in flight, retries, radio load), and -convergence
// writes the full depth-binned windowed report at the end. The merged
// -convergence report from -reps > 1 is byte-identical regardless of
// -parallel. -cpuprofile, -memprofile and -exectrace bracket the whole
// run with pprof/runtime-trace captures (see make profile).
//
// Examples:
//
//	teleadjust-sim -scenario indoor -study control -proto tele -packets 40
//	teleadjust-sim -scenario tight -study coding -dur 8m
//	teleadjust-sim -scenario indoor -study control -proto rpl -reps 4 -parallel 4
//	teleadjust-sim -scenario indoor -study control -proto retele -trace ops.jsonl
//	teleadjust-sim -scenario indoor -study control -proto retele -trace-op 17
//	teleadjust-sim -scenario grid1k -study control -proto retele -progress 1m -convergence conv.txt
//	teleadjust-sim -scenario grid1k -study control -proto retele -trace ops.jsonl -trace-sample 8
//	teleadjust-sim -scenario line -study control -proto retele -cpuprofile cpu.pprof -memprofile mem.pprof
//	teleadjust-sim -scenario refgrid -study throughput -conc 1,2,4,8 -ops 40
//	teleadjust-sim -scenario refgrid -study throughput -workload open -rates 0.1,0.2,0.4 -csv sweep.csv
//	teleadjust-sim -scenario refgrid -study service -rates 0.5,1.8 -dist hotspot -csv svc.csv
//	teleadjust-sim -scenario refgrid -study service -queue-depth 32 -high-water 24 -shed delay
//	teleadjust-sim -scenario indoor -study control -proto retele -codec huffman
//	teleadjust-sim -scenario refgrid,sparse -study coding-schemes -csv codecs.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
	"teleadjust/internal/fault"
	"teleadjust/internal/obs"
	"teleadjust/internal/prof"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// cliConfig carries every parsed flag, plus what run resolves from them
// once validate has checked the mutually dependent combinations.
type cliConfig struct {
	scenario string
	study    string
	proto    string
	codec    string
	codecs   string
	joins    int
	dur      time.Duration
	warmup   time.Duration
	packets  int
	interval time.Duration
	seed     uint64
	reps     int
	parallel int
	trace    string
	traceOp  int
	svg      string
	plan     string

	// Observability surface: the live progress period, the convergence
	// report file, and the 1-in-N trace sampling factor.
	progress    time.Duration
	convergence string
	traceSample int

	// Profiling capture harness outputs ("" = off).
	cpuprofile string
	memprofile string
	exectrace  string

	// Throughput-study knobs ("" / 0 = not specified).
	workload string
	rates    string
	conc     string
	ops      int
	dist     string
	window   int
	csv      string

	// Command-service study knobs (-study service); -1 / "" = not
	// specified, explicit 0 disables the feature.
	batchWindow time.Duration
	batchBits   int
	maxBatch    int
	cacheTTL    time.Duration
	cacheCap    int
	queueDepth  int
	highWater   int
	shed        string

	// Resolved by run: the protocol, the loaded fault plan, and the -svg
	// hook that receives every network the study builds.
	protocol  experiment.Proto
	faultPlan *fault.Plan
	onNet     func(*experiment.Net)
}

// study is one -study choice.
type study struct {
	// accepts lists the study-specific flags (see validate) it honours.
	accepts string
	// replicates: -reps > 1 merges replications over consecutive seeds.
	replicates bool
	// scenarios: -scenario may list several comma-separated scenarios.
	scenarios bool
	// check validates the study's own flag combinations (nil: none).
	check func(c *cliConfig) error
	// run executes the study and hands its results to the shared writer.
	run func(c *cliConfig) (*output, error)
}

// loadFlags are the flags the throughput and service studies share.
const loadFlags = " -codec -trace -rates -ops -dist -window -csv"

// studies is the -study table. Only coding and control accept -svg: the
// others build several networks, so no single topology represents the run.
var studies = map[string]study{
	"coding":  {accepts: "-codec -svg", replicates: true, run: runCoding},
	"control": {accepts: "-codec -svg -trace -trace-op -progress -convergence", replicates: true, run: runControl},
	"scope":   {accepts: "-codec", run: runScope},
	"throughput": {accepts: "-workload -conc" + loadFlags, replicates: true,
		check: checkLoopMode, run: runThroughput},
	"service": {accepts: "-batch-window -batch-bits -max-batch -cache-ttl -cache-cap -queue-depth -high-water -shed" + loadFlags,
		replicates: true, run: runService},
	"coding-schemes": {accepts: "-codecs -joins -csv", replicates: true, scenarios: true,
		check: func(c *cliConfig) error {
			if c.codec != "" {
				return fmt.Errorf("-codec conflicts with -study coding-schemes: use -codecs to pick the compared schemes")
			}
			return nil
		}, run: runCodingSchemes},
}

// checkLoopMode validates the throughput study's loop discipline against
// the swept knob.
func checkLoopMode(c *cliConfig) error {
	switch c.workload {
	case "", "closed":
		if c.rates != "" {
			return fmt.Errorf("-rates applies to open-loop workloads only (-workload open)")
		}
	case "open":
		if c.conc != "" {
			return fmt.Errorf("-conc applies to closed-loop workloads only (-workload closed)")
		}
		if c.rates == "" {
			return fmt.Errorf("an open-loop workload requires -rates (offered ops/s, comma-separated)")
		}
	default:
		return fmt.Errorf("unknown workload mode %q: closed or open", c.workload)
	}
	return nil
}

// validate fails fast on flag combinations that would otherwise be
// silently ignored or crash mid-run, before any profile capture or
// simulation work starts.
func (c *cliConfig) validate() error {
	if c.reps < 1 {
		return fmt.Errorf("-reps must be >= 1")
	}
	if c.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0")
	}
	if c.parallel > 0 && c.reps == 1 {
		return fmt.Errorf("-parallel only applies to replicated runs: combine it with -reps > 1")
	}
	if c.packets < 1 {
		return fmt.Errorf("-packets must be >= 1")
	}
	if c.interval <= 0 {
		return fmt.Errorf("-interval must be positive")
	}
	if c.dur <= 0 {
		return fmt.Errorf("-dur must be positive")
	}
	if c.warmup < 0 {
		return fmt.Errorf("-warmup must be >= 0")
	}
	if c.progress < 0 {
		return fmt.Errorf("-progress must be a positive period")
	}
	if c.traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 1 (export every 1-in-N operation)")
	}
	if c.joins < -1 { // -1 is the unset default
		return fmt.Errorf("-joins must be >= 0")
	}
	if c.ops < 0 {
		return fmt.Errorf("-ops must be >= 1")
	}
	if c.window < 0 {
		return fmt.Errorf("-window must be >= 1")
	}

	st, ok := studies[c.study]
	if !ok {
		return fmt.Errorf("unknown study %q", c.study)
	}
	scenarios := []string{c.scenario}
	if st.scenarios {
		scenarios = splitList(c.scenario)
	}
	if len(scenarios) == 0 {
		return fmt.Errorf("-scenario must name at least one scenario")
	}
	for _, name := range scenarios {
		if _, err := pickScenario(name, c.seed); err != nil {
			return err
		}
	}
	if _, err := pickProto(c.proto); err != nil {
		return err
	}
	if st.check != nil {
		if err := st.check(c); err != nil {
			return err
		}
	}
	accepts := strings.Fields(st.accepts)
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-codec", c.codec != ""},
		{"-codecs", c.codecs != ""},
		{"-joins", c.joins >= 0},
		{"-svg", c.svg != ""},
		{"-trace", c.trace != ""},
		{"-trace-op", c.traceOp >= 0},
		{"-progress", c.progress > 0},
		{"-convergence", c.convergence != ""},
		{"-workload", c.workload != ""},
		{"-conc", c.conc != ""},
		{"-rates", c.rates != ""},
		{"-ops", c.ops != 0},
		{"-dist", c.dist != ""},
		{"-window", c.window != 0},
		{"-csv", c.csv != ""},
		{"-batch-window", c.batchWindow >= 0},
		{"-batch-bits", c.batchBits >= 0},
		{"-max-batch", c.maxBatch >= 0},
		{"-cache-ttl", c.cacheTTL >= 0},
		{"-cache-cap", c.cacheCap >= 0},
		{"-queue-depth", c.queueDepth >= 0},
		{"-high-water", c.highWater >= 0},
		{"-shed", c.shed != ""},
	} {
		if f.set && !slices.Contains(accepts, f.name) {
			return fmt.Errorf("%s does not apply to -study %s", f.name, c.study)
		}
	}
	if c.reps > 1 {
		if !st.replicates {
			return fmt.Errorf("the %s study does not support -reps", c.study)
		}
		if c.svg != "" {
			// The SVG hook instruments one network instance; with
			// concurrent replications there is no single network to tap.
			// The telemetry trace has no such restriction: each
			// replication collects on its own bus and the merge is
			// deterministic in seed order.
			return fmt.Errorf("-svg requires -reps 1")
		}
		if c.progress > 0 {
			// Replications run concurrently on the worker pool; their live
			// lines would interleave nondeterministically. The merged
			// -convergence report has no such restriction.
			return fmt.Errorf("-progress requires -reps 1")
		}
	}
	if c.traceSample > 0 && c.trace == "" {
		return fmt.Errorf("-trace-sample requires -trace")
	}
	if c.codec != "" {
		if _, err := core.CodecByName(c.codec); err != nil {
			return err
		}
		if c.proto == "drip" || c.proto == "rpl" {
			return fmt.Errorf("-codec applies to TeleAdjusting variants only, not -proto %s", c.proto)
		}
	}
	for _, name := range splitList(c.codecs) {
		if _, err := core.CodecByName(name); err != nil {
			return err
		}
	}
	switch c.shed {
	case "", "reject", "delay":
	default:
		return fmt.Errorf("unknown -shed policy %q: reject or delay", c.shed)
	}
	if c.batchBits > 56 {
		return fmt.Errorf("-batch-bits must be <= 56 (prefix key width)")
	}
	if c.maxBatch >= 0 && (c.maxBatch < 2 || c.maxBatch > core.MaxBatchMembers) {
		return fmt.Errorf("-max-batch must be between 2 and %d (wire member bound)", core.MaxBatchMembers)
	}
	if c.queueDepth > 0 && c.highWater > c.queueDepth {
		return fmt.Errorf("-high-water must not exceed -queue-depth: the hard bound would shed before the soft one engages")
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseConcurrency parses a comma-separated list of positive ints.
func parseConcurrency(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad concurrency level %q: want positive integers", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses a comma-separated list of positive rates (ops/s).
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q: want positive ops/s", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadOpts applies the flags the throughput and service studies share.
func (c *cliConfig) loadOpts(o *experiment.LoadOpts) error {
	o.Warmup = c.warmup
	o.Trace = c.trace != ""
	if c.ops > 0 {
		o.Ops = c.ops
	}
	if c.dist != "" {
		o.Dist = c.dist
	}
	if c.window > 0 {
		o.Window = c.window
	}
	if c.rates != "" {
		rates, err := parseRates(c.rates)
		if err != nil {
			return err
		}
		o.Rates = rates
	}
	return nil
}

// override sets *dst to a flag value unless it holds the -1 unset sentinel.
func override[T int | time.Duration](dst *T, v T) {
	if v >= 0 {
		*dst = v
	}
}

// serviceOpts assembles command-service study options from validated
// flags; -1 sentinels keep the study defaults, explicit zeros disable.
func (c *cliConfig) serviceOpts() (experiment.ServiceOpts, error) {
	opts := experiment.DefaultServiceOpts()
	override(&opts.BatchWindow, c.batchWindow)
	override(&opts.BatchBits, c.batchBits)
	override(&opts.MaxBatch, c.maxBatch)
	override(&opts.CacheTTL, c.cacheTTL)
	override(&opts.CacheCap, c.cacheCap)
	override(&opts.QueueDepth, c.queueDepth)
	override(&opts.HighWater, c.highWater)
	if c.shed != "" {
		opts.Policy = c.shed
	}
	return opts, c.loadOpts(&opts.LoadOpts)
}

// throughputOpts assembles the study options from validated flags.
func (c *cliConfig) throughputOpts() (experiment.ThroughputOpts, error) {
	opts := experiment.DefaultThroughputOpts()
	if c.workload != "" {
		opts.Mode = c.workload
	}
	if c.conc != "" {
		levels, err := parseConcurrency(c.conc)
		if err != nil {
			return opts, err
		}
		opts.Concurrency = levels
	}
	return opts, c.loadOpts(&opts.LoadOpts)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teleadjust-sim:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var c cliConfig
	flag.StringVar(&c.scenario, "scenario", "indoor", "scenario: tight, sparse, indoor, indoor-wifi, refgrid, grid1k, line")
	flag.StringVar(&c.study, "study", "control", "study: coding, control, scope, throughput, service, coding-schemes")
	flag.StringVar(&c.proto, "proto", "tele", "protocol: tele, retele, strict, teleadjust, drip, rpl")
	flag.StringVar(&c.codec, "codec", "", "tree-coding scheme for TeleAdjusting variants: "+strings.Join(core.CodecNames(), ", "))
	flag.StringVar(&c.codecs, "codecs", "", "coding-schemes study: comma-separated codecs to compare (default all)")
	flag.IntVar(&c.joins, "joins", -1, "coding-schemes study: mid-probe crash-reboots per codec (default 3)")
	flag.DurationVar(&c.dur, "dur", 8*time.Minute, "coding study duration")
	flag.DurationVar(&c.warmup, "warmup", 4*time.Minute, "study warmup")
	flag.IntVar(&c.packets, "packets", 40, "control packets to send")
	flag.DurationVar(&c.interval, "interval", 15*time.Second, "inter-packet interval")
	flag.Uint64Var(&c.seed, "seed", 1, "simulation seed")
	flag.IntVar(&c.reps, "reps", 1, "independent replications over consecutive seeds")
	flag.IntVar(&c.parallel, "parallel", 0, "replication workers (0 = GOMAXPROCS; requires -reps > 1)")
	flag.StringVar(&c.trace, "trace", "", "write the telemetry event stream as JSONL to this file (control, throughput, service study)")
	flag.IntVar(&c.traceOp, "trace-op", -1, "render operation span traces for this destination node (control study)")
	flag.DurationVar(&c.progress, "progress", 0, "print a live windowed convergence/throughput line at this period (control study, -reps 1)")
	flag.StringVar(&c.convergence, "convergence", "", "write the windowed convergence report to this file (control study)")
	flag.IntVar(&c.traceSample, "trace-sample", 0, "thin the -trace export to every 1-in-N operation's events (whole spans kept)")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	flag.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&c.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	flag.StringVar(&c.svg, "svg", "", "write the converged topology/tree/codes as SVG to this file")
	flag.StringVar(&c.plan, "faultplan", "", "JSON fault plan scheduled on every replication (see EXPERIMENTS.md)")
	flag.StringVar(&c.workload, "workload", "", "throughput loop discipline: closed (default) or open")
	flag.StringVar(&c.rates, "rates", "", "open-loop offered rates in ops/s, comma-separated (e.g. 0.1,0.2,0.4)")
	flag.StringVar(&c.conc, "conc", "", "closed-loop concurrency levels, comma-separated (default 1,2,4,8)")
	flag.IntVar(&c.ops, "ops", 0, "control operations per throughput load point (default 40)")
	flag.StringVar(&c.dist, "dist", "", "throughput destinations: uniform (default), hotspot, depth")
	flag.IntVar(&c.window, "window", 0, "open-loop admission window (default 8)")
	flag.StringVar(&c.csv, "csv", "", "write the throughput/service sweep as CSV to this file")
	flag.DurationVar(&c.batchWindow, "batch-window", -1, "service study: prefix-batching window (0 disables batching; default 500ms)")
	flag.IntVar(&c.batchBits, "batch-bits", -1, "service study: code-prefix bits commands are batched by (default 3)")
	flag.IntVar(&c.maxBatch, "max-batch", -1, "service study: flush a batch group early at this many commands (default 16)")
	flag.DurationVar(&c.cacheTTL, "cache-ttl", -1, "service study: route-freshness cache TTL (0 disables the cache; default 5m)")
	flag.IntVar(&c.cacheCap, "cache-cap", -1, "service study: route cache capacity (default 256)")
	flag.IntVar(&c.queueDepth, "queue-depth", -1, "service study: hard admission backlog bound (0 = unbounded; default 128)")
	flag.IntVar(&c.highWater, "high-water", -1, "service study: soft backlog mark where -shed engages (0 disables; default 6)")
	flag.StringVar(&c.shed, "shed", "", "service study: over-high-water policy, delay (default) or reject")
	flag.Parse()

	if err := c.validate(); err != nil {
		return err
	}

	stopProf, err := prof.Start(prof.Config{CPU: c.cpuprofile, Mem: c.memprofile, Trace: c.exectrace})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()

	c.protocol, _ = pickProto(c.proto) // checked by validate
	if c.plan != "" {
		if c.faultPlan, err = fault.LoadPlan(c.plan); err != nil {
			return err
		}
	}
	var built *experiment.Net
	if c.svg != "" {
		c.onNet = func(net *experiment.Net) { built = net }
	}
	out, err := studies[c.study].run(&c)
	if err != nil {
		return err
	}
	if err := c.write(out); err != nil {
		return err
	}
	if built != nil {
		if err := writeFile(c.svg, built.WriteTopologySVG); err != nil {
			return err
		}
		fmt.Printf("topology SVG written to %s\n", c.svg)
	}
	return nil
}

// replicate runs one study over -reps consecutive seeds from -seed on
// -parallel workers, each seed on a fresh build of the named scenario,
// and merges the results in seed order. One seed gives exactly the
// direct run.
func replicate[R any](c *cliConfig, scenario string, run func(experiment.Scenario) (R, error), merge func([]R) R) (R, error) {
	seeds := make([]uint64, c.reps)
	for i := range seeds {
		seeds[i] = c.seed + uint64(i)
	}
	return experiment.Replicate(experiment.Replicator{Workers: c.parallel}, seeds, func(seed uint64) (R, error) {
		return run(c.build(scenario, seed))
	}, merge)
}

// build assembles one named scenario for one seed.
func (c *cliConfig) build(name string, seed uint64) experiment.Scenario {
	scn, _ := pickScenario(name, seed) // checked by validate
	scn.Fault = c.faultPlan
	scn.Codec = c.codec
	if c.onNet != nil {
		scn.OnNetBuilt = c.onNet
	}
	return scn
}

// output is what a finished study hands the shared writer; a study leaves
// the parts it has no flag for empty.
type output struct {
	report func(w io.Writer)
	// csv writes the -csv export, which the echo line calls csvName.
	csv         func(w io.Writer) error
	csvName     string
	convergence *obs.Report
	// events is the -trace export and the -trace-op span source.
	events []telemetry.Event
}

// write prints the study's report, then writes each requested file.
func (c *cliConfig) write(out *output) error {
	out.report(os.Stdout)
	if c.csv != "" {
		if err := writeFile(c.csv, out.csv); err != nil {
			return err
		}
		fmt.Printf("\n%s written to %s\n", out.csvName, c.csv)
	}
	if c.convergence != "" {
		err := writeFile(c.convergence, func(w io.Writer) error {
			obs.WriteConvergenceReport(w, out.convergence)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nconvergence report written to %s\n", c.convergence)
	}
	if c.trace != "" {
		events, sampled := out.events, ""
		if c.traceSample > 1 {
			events = telemetry.SampleOps(out.events, c.traceSample)
			sampled = fmt.Sprintf(" (1-in-%d op sample of %d)", c.traceSample, len(out.events))
		}
		if err := writeFile(c.trace, func(w io.Writer) error { return telemetry.WriteJSONL(w, events) }); err != nil {
			return err
		}
		fmt.Printf("\n%d telemetry events written to %s%s\n", len(events), c.trace, sampled)
	}
	if c.traceOp >= 0 {
		dst := radio.NodeID(c.traceOp)
		fmt.Printf("\n--- operation spans to node %d ---\n", dst)
		telemetry.RenderOpSpans(os.Stdout, out.events, func(s *telemetry.OpSpan) bool {
			return s.Dst == dst
		})
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCoding(c *cliConfig) (*output, error) {
	res, err := replicate(c, c.scenario, func(scn experiment.Scenario) (*experiment.CodingResult, error) {
		return experiment.RunCodingStudy(scn, c.dur)
	}, experiment.MergeCodingResults)
	return &output{report: func(w io.Writer) { experiment.WriteCodingReport(w, res) }}, err
}

func runControl(c *cliConfig) (*output, error) {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = c.warmup
	opts.Packets = c.packets
	opts.Interval = c.interval
	opts.Trace = c.trace != "" || c.traceOp >= 0
	opts.Window = c.progress
	if c.convergence != "" && opts.Window == 0 {
		// -convergence without -progress still needs a window period;
		// 30 s matches the report/golden defaults.
		opts.Window = 30 * time.Second
	}
	if c.progress > 0 {
		opts.Progress = os.Stderr
	}
	res, err := replicate(c, c.scenario, func(scn experiment.Scenario) (*experiment.ControlResult, error) {
		return experiment.RunControlStudy(scn, c.protocol, opts)
	}, experiment.MergeControlResults)
	if err != nil {
		return nil, err
	}
	return &output{
		report:      func(w io.Writer) { experiment.WriteControlReport(w, res) },
		convergence: res.Convergence,
		events:      res.Events,
	}, nil
}

func runScope(c *cliConfig) (*output, error) {
	opts := experiment.DefaultScopeOpts()
	opts.Warmup = c.warmup
	res, err := experiment.RunScopeStudy(c.build(c.scenario, c.seed), opts)
	return &output{report: func(w io.Writer) { experiment.WriteScopeReport(w, res) }}, err
}

func runThroughput(c *cliConfig) (*output, error) {
	opts, err := c.throughputOpts()
	if err != nil {
		return nil, err
	}
	res, err := replicate(c, c.scenario, func(scn experiment.Scenario) (*experiment.ThroughputResult, error) {
		return experiment.RunThroughputStudy(scn, c.protocol, opts)
	}, experiment.MergeThroughputResults)
	if err != nil {
		return nil, err
	}
	return &output{
		report:  func(w io.Writer) { experiment.WriteThroughputReport(w, res) },
		csv:     func(w io.Writer) error { return experiment.WriteThroughputCSV(w, res) },
		csvName: "throughput sweep",
		events:  res.Events,
	}, nil
}

func runService(c *cliConfig) (*output, error) {
	opts, err := c.serviceOpts()
	if err != nil {
		return nil, err
	}
	res, err := replicate(c, c.scenario, func(scn experiment.Scenario) (*experiment.ServiceResult, error) {
		return experiment.RunServiceStudy(scn, c.protocol, opts)
	}, experiment.MergeServiceResults)
	if err != nil {
		return nil, err
	}
	return &output{
		report:  func(w io.Writer) { experiment.WriteServiceReport(w, res) },
		csv:     func(w io.Writer) error { return experiment.WriteServiceCSV(w, res) },
		csvName: "service sweep",
		// The service sub-runs' events (including the svc.batch
		// membership spans); a transparent study exports the baseline,
		// byte-identical to the open-loop throughput trace.
		events: res.EventsSvc,
	}, nil
}

// runCodingSchemes sweeps the codec list over every scenario in the
// comma-separated -scenario value: one comparison per scenario, and all
// rows in one CSV file.
func runCodingSchemes(c *cliConfig) (*output, error) {
	codecs := splitList(c.codecs)
	if len(codecs) == 0 {
		codecs = core.CodecNames()
	}
	opts := experiment.DefaultCodingSchemesOpts()
	opts.Warmup = c.warmup
	opts.Packets = c.packets
	opts.Interval = c.interval
	if c.joins >= 0 {
		opts.Joins = c.joins
	}
	var results []*experiment.CodingSchemesResult
	for _, name := range splitList(c.scenario) {
		res, err := replicate(c, name, func(scn experiment.Scenario) (*experiment.CodingSchemesResult, error) {
			return experiment.RunCodingSchemesStudy(scn, codecs, opts)
		}, experiment.MergeCodingSchemesResults)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return &output{
		report: func(w io.Writer) {
			for i, res := range results {
				if i > 0 {
					fmt.Fprintln(w)
				}
				experiment.WriteCodingSchemesReport(w, res)
			}
		},
		csv:     func(w io.Writer) error { return experiment.WriteCodingSchemesCSV(w, results...) },
		csvName: "codec comparison",
	}, nil
}

func pickScenario(name string, seed uint64) (experiment.Scenario, error) {
	switch name {
	case "tight":
		return experiment.TightGrid(seed), nil
	case "sparse":
		return experiment.SparseLinear(seed), nil
	case "indoor":
		return experiment.Indoor(seed, false), nil
	case "indoor-wifi":
		return experiment.Indoor(seed, true), nil
	case "refgrid":
		return experiment.ReferenceGrid(seed), nil
	case "grid1k":
		return experiment.Grid1K(seed), nil
	case "line":
		return experiment.Line(seed), nil
	}
	return experiment.Scenario{}, fmt.Errorf("unknown scenario %q", name)
}

func pickProto(name string) (experiment.Proto, error) {
	switch name {
	case "tele":
		return experiment.ProtoTele, nil
	case "retele":
		return experiment.ProtoReTele, nil
	case "strict":
		return experiment.ProtoTeleStrict, nil
	case "teleadjust":
		return experiment.ProtoTeleAdjust, nil
	case "drip":
		return experiment.ProtoDrip, nil
	case "rpl":
		return experiment.ProtoRPL, nil
	}
	return experiment.ProtoNone, fmt.Errorf("unknown protocol %q", name)
}
