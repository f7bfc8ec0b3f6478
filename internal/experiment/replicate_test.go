package experiment

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"teleadjust/internal/fault"
	"teleadjust/internal/obs"
	"teleadjust/internal/telemetry"
)

// replicateOpts is a fast control study for replication tests.
func replicateOpts() ControlOpts {
	return ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
	}
}

// controlRun, codingRun, schemesRun, throughputRun and serviceRun adapt
// each study's runner to Replicate's run-one-seed shape.
func controlRun(build func(uint64) Scenario, proto Proto, opts ControlOpts) func(uint64) (*ControlResult, error) {
	return func(seed uint64) (*ControlResult, error) { return RunControlStudy(build(seed), proto, opts) }
}

func codingRun(build func(uint64) Scenario, dur time.Duration) func(uint64) (*CodingResult, error) {
	return func(seed uint64) (*CodingResult, error) { return RunCodingStudy(build(seed), dur) }
}

func schemesRun(build func(uint64) Scenario, codecs []string, opts CodingSchemesOpts) func(uint64) (*CodingSchemesResult, error) {
	return func(seed uint64) (*CodingSchemesResult, error) {
		return RunCodingSchemesStudy(build(seed), codecs, opts)
	}
}

func throughputRun(build func(uint64) Scenario, proto Proto, opts ThroughputOpts) func(uint64) (*ThroughputResult, error) {
	return func(seed uint64) (*ThroughputResult, error) { return RunThroughputStudy(build(seed), proto, opts) }
}

func serviceRun(build func(uint64) Scenario, proto Proto, opts ServiceOpts) func(uint64) (*ServiceResult, error) {
	return func(seed uint64) (*ServiceResult, error) { return RunServiceStudy(build(seed), proto, opts) }
}

// checkOneSeed runs a study directly and through Replicate on the same
// single seed and requires identical rendered output.
func checkOneSeed[R any](t *testing.T, run func(uint64) (R, error), merge func([]R) R, render func(*bytes.Buffer, R) error) {
	t.Helper()
	const seed = 7
	direct, err := run(seed)
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := Replicate(Replicator{}, []uint64{seed}, run, merge)
	if err != nil {
		t.Fatal(err)
	}
	var db, rb bytes.Buffer
	if err := render(&db, direct); err != nil {
		t.Fatal(err)
	}
	if err := render(&rb, replicated); err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("nothing rendered")
	}
	if !bytes.Equal(db.Bytes(), rb.Bytes()) {
		t.Fatalf("one-seed Replicate diverged from the direct run:\n--- direct ---\n%s\n--- replicated ---\n%s",
			db.String(), rb.String())
	}
}

// TestOneSeedReplicateMatchesDirect: for every replicable study,
// Replicate over one seed renders the same report, CSV and trace bytes
// as the study's runner called directly on that seed, so callers need no
// separate single-run path.
func TestOneSeedReplicateMatchesDirect(t *testing.T) {
	t.Run("control", func(t *testing.T) {
		opts := replicateOpts()
		opts.Trace = true
		opts.Window = 30 * time.Second
		checkOneSeed(t, controlRun(smallScenario, ProtoReTele, opts), MergeControlResults,
			func(b *bytes.Buffer, res *ControlResult) error {
				WriteControlReport(b, res)
				obs.WriteConvergenceReport(b, res.Convergence)
				if err := WriteControlCSV(b, res); err != nil {
					return err
				}
				return telemetry.WriteJSONL(b, res.Events)
			})
	})
	t.Run("coding", func(t *testing.T) {
		checkOneSeed(t, codingRun(smallScenario, 2*time.Minute), MergeCodingResults,
			func(b *bytes.Buffer, res *CodingResult) error {
				WriteCodingReport(b, res)
				return WriteCodingCSV(b, res)
			})
	})
	t.Run("coding-schemes", func(t *testing.T) {
		opts := CodingSchemesOpts{
			Warmup:   90 * time.Second,
			Packets:  3,
			Interval: 16 * time.Second,
			Drain:    20 * time.Second,
			Joins:    1,
		}
		checkOneSeed(t, schemesRun(smallScenario, []string{"paper", "treeexplorer"}, opts), MergeCodingSchemesResults,
			func(b *bytes.Buffer, res *CodingSchemesResult) error {
				WriteCodingSchemesReport(b, res)
				return WriteCodingSchemesCSV(b, res)
			})
	})
	t.Run("throughput", func(t *testing.T) {
		opts := throughputOpts()
		opts.Trace = true
		checkOneSeed(t, throughputRun(smallScenario, ProtoTele, opts), MergeThroughputResults,
			func(b *bytes.Buffer, res *ThroughputResult) error {
				WriteThroughputReport(b, res)
				if err := WriteThroughputCSV(b, res); err != nil {
					return err
				}
				return telemetry.WriteJSONL(b, res.Events)
			})
	})
	t.Run("service", func(t *testing.T) {
		opts := svcTestOpts()
		opts.Trace = true
		checkOneSeed(t, serviceRun(smallScenario, ProtoTele, opts), MergeServiceResults,
			func(b *bytes.Buffer, res *ServiceResult) error {
				WriteServiceReport(b, res)
				if err := WriteServiceCSV(b, res); err != nil {
					return err
				}
				if err := telemetry.WriteJSONL(b, res.EventsBase); err != nil {
					return err
				}
				return telemetry.WriteJSONL(b, res.EventsSvc)
			})
	})
}

// TestParallelReplicationByteIdentical is the determinism contract of the
// Replicator: N replications merged on a multi-worker pool must produce a
// byte-identical report to the serial merge, regardless of scheduling.
func TestParallelReplicationByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(7, 4)
	opts := replicateOpts()

	serial, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(smallScenario, ProtoTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 4}, seeds, controlRun(smallScenario, ProtoTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}

	var sb, pb bytes.Buffer
	WriteControlReport(&sb, serial)
	WriteControlReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	if serial.Sent != 3*len(seeds) {
		t.Fatalf("merged Sent = %d, want %d", serial.Sent, 3*len(seeds))
	}
}

// TestParallelReplicationTraceByteIdentical extends the determinism
// contract to the telemetry plane: with tracing enabled, the merged event
// stream of a multi-worker pool must serialize to the exact same JSONL
// bytes as the serial merge. Events are tagged with their replication
// index during the merge, so ordering is by seed position, never by
// worker completion order.
func TestParallelReplicationTraceByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(11, 3)
	opts := replicateOpts()
	opts.Trace = true

	serial, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(smallScenario, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 3}, seeds, controlRun(smallScenario, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Events) == 0 {
		t.Fatal("tracing enabled but no events collected")
	}
	runs := map[int]bool{}
	for _, ev := range serial.Events {
		runs[ev.Run] = true
	}
	for ri := range seeds {
		if !runs[ri] {
			t.Fatalf("no events tagged with replication index %d", ri)
		}
	}

	var sb, pb bytes.Buffer
	if err := telemetry.WriteJSONL(&sb, serial.Events); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&pb, parallel.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel trace diverged from serial: %d vs %d bytes", sb.Len(), pb.Len())
	}
}

// TestParallelCodingReplication checks the coding-study path of the
// Replicator the same way.
func TestParallelCodingReplication(t *testing.T) {
	seeds := DeriveSeeds(9, 3)
	serial, err := Replicate(Replicator{Workers: 1}, seeds, codingRun(smallScenario, 2*time.Minute), MergeCodingResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 3}, seeds, codingRun(smallScenario, 2*time.Minute), MergeCodingResults)
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	WriteCodingReport(&sb, serial)
	WriteCodingReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel coding merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
}

// TestFaultPlanReplicationByteIdentical extends the determinism contract
// to fault-scripted runs: a scenario carrying a FaultPlan (crash, lossy
// window, reboot — all of which consume injector RNG and mutate node
// lifecycles) must still merge byte-identically on a parallel pool. The
// plan value is shared across all replications on purpose: the injector
// must treat it as read-only.
func TestFaultPlanReplicationByteIdentical(t *testing.T) {
	plan := &fault.Plan{Name: "replicate-churn", Events: []fault.Event{
		{At: fault.Duration(100 * time.Second), Kind: fault.Crash, Node: 6},
		{At: fault.Duration(105 * time.Second), Kind: fault.Drop, From: fault.Any, To: fault.Any, Prob: 0.2, For: fault.Duration(30 * time.Second)},
		{At: fault.Duration(140 * time.Second), Kind: fault.Reboot, Node: 6},
	}}
	build := func(seed uint64) Scenario {
		s := smallScenario(seed)
		s.Fault = plan
		return s
	}
	seeds := DeriveSeeds(13, 4)
	opts := replicateOpts()
	opts.DataIPI = 20 * time.Second // exercise the ticker bookkeeping across crash/reboot

	serial, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(build, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 4}, seeds, controlRun(build, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	WriteControlReport(&sb, serial)
	WriteControlReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("fault-scripted parallel merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	if serial.Sent == 0 {
		t.Fatal("nothing sent through the fault plan")
	}
}

func TestDeriveSeedsDeterministic(t *testing.T) {
	a := DeriveSeeds(1, 8)
	b := DeriveSeeds(1, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs between derivations", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %#x", s)
		}
		seen[s] = true
	}
	if c := DeriveSeeds(2, 8); c[0] == a[0] {
		t.Fatal("different base seeds derived the same stream")
	}
}

func TestReplicatorEmptySeeds(t *testing.T) {
	if _, err := Replicate(Replicator{}, nil, controlRun(smallScenario, ProtoTele, replicateOpts()), MergeControlResults); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if _, err := Replicate(Replicator{}, nil, codingRun(smallScenario, time.Minute), MergeCodingResults); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// TestReplicatorPropagatesErrors: a failing replication must surface its
// error deterministically (lowest seed index wins).
func TestReplicatorPropagatesErrors(t *testing.T) {
	bad := func(seed uint64) Scenario {
		s := smallScenario(seed)
		if seed == 2 || seed == 3 {
			s.Dep = nil // Build fails
		}
		return s
	}
	_, err := Replicate(Replicator{Workers: 4}, []uint64{1, 2, 3}, controlRun(bad, ProtoTele, replicateOpts()), MergeControlResults)
	if err == nil {
		t.Fatal("replication error swallowed")
	}
	want := fmt.Sprintf("%v", err)
	for i := 0; i < 3; i++ {
		_, err2 := Replicate(Replicator{Workers: 4}, []uint64{1, 2, 3}, controlRun(bad, ProtoTele, replicateOpts()), MergeControlResults)
		if got := fmt.Sprintf("%v", err2); got != want {
			t.Fatalf("error not deterministic: %q vs %q", got, want)
		}
	}
}

// TestReplicatorWorkerCaps: worker counts beyond the seed count and the
// zero default both behave.
func TestReplicatorWorkerCaps(t *testing.T) {
	seeds := DeriveSeeds(5, 2)
	opts := replicateOpts()
	res, err := Replicate(Replicator{Workers: 16}, seeds, controlRun(smallScenario, ProtoTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 6 {
		t.Fatalf("sent = %d, want 6", res.Sent)
	}
	if w := (Replicator{Workers: 0}).workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
}
