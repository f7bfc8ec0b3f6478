package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/obs"
)

// convergenceOpts is the short control study used by the windowed
// aggregation tests; Window divides the run into a handful of windows.
func convergenceOpts() ControlOpts {
	return ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
		Window:   30 * time.Second,
	}
}

// renderConvergence serializes a report both ways (text + CSV) — the
// byte-identity comparisons cover every writer.
func renderConvergence(t *testing.T, r *obs.Report) []byte {
	t.Helper()
	if r == nil {
		t.Fatal("no convergence report collected")
	}
	var buf bytes.Buffer
	obs.WriteConvergenceReport(&buf, r)
	buf.WriteString("\n")
	if err := obs.WriteConvergenceCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestControlConvergenceGoldenLine pins a real run's windowed aggregates:
// the 8-node line study's convergence report and CSV are a pure function
// of the seed, like the trace goldens beside it.
func TestControlConvergenceGoldenLine(t *testing.T) {
	res, err := RunControlStudy(smallScenario(5), ProtoReTele, convergenceOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Convergence
	if r == nil {
		t.Fatal("Window set but no convergence report")
	}
	if r.CodedTotal() != 7 {
		t.Fatalf("line-8 coded %d/7 nodes", r.CodedTotal())
	}
	if r.ReportedTotal() == 0 {
		t.Fatal("no node ever reported its code to the sink")
	}
	checkGolden(t, "convergence_line.golden", renderConvergence(t, r))
}

// TestConvergenceSerialParallelByteIdentical extends the established
// replication regression bar to the windowed aggregates: a 4-seed study's
// merged convergence report must serialize to the same bytes on a serial
// runner and a 2-worker pool.
func TestConvergenceSerialParallelByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(9, 4)
	opts := convergenceOpts()
	serial, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(Line, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 2}, seeds, controlRun(Line, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Convergence == nil || serial.Convergence.Runs != 4 {
		t.Fatalf("merged convergence = %+v", serial.Convergence)
	}
	sb := renderConvergence(t, serial.Convergence)
	pb := renderConvergence(t, parallel.Convergence)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("parallel windowed aggregates diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
	}
}

// TestWindowDisabledLeavesResultUntouched: without Window the study must
// not attach an aggregator or produce a report.
func TestWindowDisabledLeavesResultUntouched(t *testing.T) {
	opts := convergenceOpts()
	opts.Window = 0
	res, err := RunControlStudy(smallScenario(5), ProtoReTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Convergence != nil {
		t.Fatal("Window=0 still produced a convergence report")
	}
}
