package main

import (
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
)

// smallService is the service workload cut down to test size: one
// replication, a short warmup, a handful of commands.
var smallService = svcParams{
	opsPerTenant: 4,
	rate:         0.5,
	warmup:       2 * time.Minute,
	horizon:      10 * time.Minute,
	chunk:        10 * time.Second,
}

// small cuts a workload to one replication, and a service workload to
// test size.
func small(name string) *workloadDef {
	w := *workloads[name]
	w.reps = 1
	if w.assemble != nil {
		w.svc = smallService
	}
	return &w
}

// Chunk boundaries are where the benchmark samples the queue and the
// sink's code registry, and where the service phase checks for its end.
// Running the same simulated time in one piece must give the same
// outcome digest.
func TestChunkingKeepsServiceOutcome(t *testing.T) {
	w := small("refgrid-service")
	chunked, err := runService(w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := *w
	whole.svc.chunk = whole.svc.horizon
	unchunked, err := runService(&whole, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := chunked.digest.sum(), unchunked.digest.sum(); a != b {
		t.Fatalf("chunked digest %s, unchunked %s", a, b)
	}
	if err := check(chunked, ""); err != nil {
		t.Fatal(err)
	}
}

// Formation latency is quantized to the sampling chunk, but the network
// state at the end of the window must not depend on it.
func TestChunkingKeepsFormationState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 1024-node field")
	}
	w := workloads["grid1k-form"]
	window := 10 * time.Second
	chunked, err := runFormWindow(w, 1, nil, window, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	unchunked, err := runFormWindow(w, 1, nil, window, window)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := chunked.state.sum(), unchunked.state.sum(); a != b {
		t.Fatalf("chunked state %s, unchunked %s", a, b)
	}
	if chunked.layer.queuePeak == 0 {
		t.Fatal("no queue samples taken at chunk boundaries")
	}
}

// The traced run wraps every boundary; the simulated outcome must stay
// bit-identical, and the time split must cover the traced simulation.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"line-retele", "line-service", "refgrid-service"} {
		t.Run(name, func(t *testing.T) {
			w := small(name)
			run := func(in *instrument) *unit {
				u, err := w.run(w, 5, in)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			base := run(nil)
			in := newInstrument()
			traced := run(in)
			if a, b := base.digest.sum(), traced.digest.sum(); a != b {
				t.Fatalf("untraced digest %s, traced %s", a, b)
			}
			tr := in.tr
			if tr.calls[spanRadioUpcall] == 0 || tr.calls[spanCoreUpcall] == 0 || tr.calls[spanCtpUpcall] == 0 {
				t.Fatalf("boundary calls not traced: %v", tr.calls)
			}
			if w.assemble != nil && (tr.calls[spanCoreSend] == 0 || tr.calls[spanSubmit] == 0) {
				t.Fatalf("service boundaries not traced: %v", tr.calls)
			}
			sim := traced.spent(simPart).wall
			if rest := sim - tr.selfSum(); rest <= 0 {
				t.Fatalf("span self time %v exceeds traced simulation time %v", tr.selfSum(), sim)
			}
			if len(tr.stack) != 0 {
				t.Fatalf("%d spans left open", len(tr.stack))
			}
		})
	}
}

// The dispatch wrapper must keep every optional capability the engine
// offers the batcher, or batching and rescue suppression silently turn
// off in the traced run.
func TestDispatchWrapKeepsCapabilities(t *testing.T) {
	var d any = &dispatchWrap{}
	if _, ok := d.(interface {
		SendControlBatch([]core.BatchRequest) ([]uint32, error)
	}); !ok {
		t.Error("wrapper drops SendControlBatch")
	}
	if _, ok := d.(interface {
		SendControlWith(radio.NodeID, any, core.SendOpts, func(protocol.Result)) (uint32, error)
	}); !ok {
		t.Error("wrapper drops SendControlWith")
	}
}

// The latency percentile counts failed ops as slower than every success
// and reports the horizon when the rank falls among them.
func TestOpPercentile(t *testing.T) {
	ops := []op{{true, 3 * time.Second}, {true, time.Second}, {false, 0}, {true, 2 * time.Second}}
	if got := opPercentile(ops, 0.5, time.Minute); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := opPercentile(ops, 0.9, time.Minute); got != 60 {
		t.Errorf("p90 = %v, want the 60 s horizon", got)
	}
}

// Every unit of a seed reproduces its digest; another seed does not.
func TestDigestRepeatsPerSeed(t *testing.T) {
	w := small("line-retele")
	a, err := w.run(w, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.run(w, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.run(w, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest.sum() != b.digest.sum() {
		t.Fatal("same seed, different digests")
	}
	if a.digest.sum() == c.digest.sum() {
		t.Fatal("different seeds, same digest")
	}
}

// bestSum keeps each replication's cheapest pass, on each clock apart.
func TestBestSumTakesCheapestPassPerReplication(t *testing.T) {
	s := time.Second
	passes := [][]cost{
		{{wall: 3 * s, cpu: 5 * s}, {wall: 1 * s, cpu: 1 * s}},
		{{wall: 2 * s, cpu: 6 * s}, {wall: 4 * s, cpu: 2 * s}},
	}
	if got, want := bestSum(passes), (cost{wall: 3 * s, cpu: 6 * s}); got != want {
		t.Fatalf("bestSum = %+v, want %+v", got, want)
	}
}

// The host probe must do the same work every time and allocate nothing,
// or its cost would not read the host's speed alone.
func TestHostProbeRepeatsWithoutAllocating(t *testing.T) {
	if a, b := hostProbe(), hostProbe(); a != b {
		t.Fatalf("probe checksums %x and %x differ", a, b)
	}
	if n := testing.AllocsPerRun(3, func() { hostProbe() }); n != 0 {
		t.Fatalf("probe allocates %v times per run", n)
	}
}

// hostScale reads the lower quartile of the run's probes: one slow probe
// does not move it.
func TestHostScaleUsesLowerQuartile(t *testing.T) {
	ms := time.Millisecond
	u := &unit{}
	for _, w := range []time.Duration{16 * ms, 4 * ms, 5 * ms, 6 * ms, 90 * ms, 7 * ms, 8 * ms, 9 * ms} {
		u.reps = append(u.reps, repCost{probe: cost{wall: w}})
	}
	scale, probeWall := hostScale(probeWalls([]*unit{u}))
	if probeWall != 6*ms || scale != probeNominal.Seconds()/0.006 {
		t.Fatalf("hostScale = %v, %v; want the 6 ms lower quartile", scale, probeWall)
	}
}
