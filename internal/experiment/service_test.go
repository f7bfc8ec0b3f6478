package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// svcTestOpts is a scaled-down service ramp for the 8-node test line.
func svcTestOpts() ServiceOpts {
	o := DefaultServiceOpts()
	o.Warmup = 90 * time.Second
	o.Ops = 8
	o.Rates = []float64{0.5}
	o.Dist = "depth"
	o.Window = 8
	o.PerGroup = 8
	o.BatchWindow = 4 * time.Second
	o.BatchBits = 4
	o.MaxBatch = 4
	o.CacheCap = 64
	o.QueueDepth = 0
	o.HighWater = 0
	o.MaxRun = 15 * time.Minute
	return o
}

// transparentOpts disables every service feature so both sub-runs are the
// plain scheduler.
func transparentOpts() ServiceOpts {
	o := svcTestOpts()
	o.BatchWindow = 0
	o.CacheTTL = 0
	o.QueueDepth = 0
	o.HighWater = 0
	return o
}

func TestServiceStudySmall(t *testing.T) {
	opts := svcTestOpts()
	opts.Trace = true
	res, err := RunServiceStudy(smallScenario(7), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d load points, want 1", len(res.Points))
	}
	pt := res.Points[0]
	if pt.Base.OK == 0 || pt.Svc.OK == 0 {
		t.Fatalf("no completions: %+v", pt)
	}
	if pt.Base.Goodput <= 0 || pt.Svc.Goodput <= 0 {
		t.Fatalf("rates: base=%v svc=%v", pt.Base.Goodput, pt.Svc.Goodput)
	}
	if pt.Base.Latency.Count() != pt.Base.OK || pt.Svc.Latency.Count() != pt.Svc.OK {
		t.Fatalf("latency samples: base %d/%d svc %d/%d",
			pt.Base.Latency.Count(), pt.Base.OK, pt.Svc.Latency.Count(), pt.Svc.OK)
	}
	if pt.CacheHits+pt.CacheMisses == 0 {
		t.Fatal("route cache saw no lookups")
	}
	if len(res.EventsBase) == 0 || len(res.EventsSvc) == 0 {
		t.Fatalf("trace events: base=%d svc=%d", len(res.EventsBase), len(res.EventsSvc))
	}
	// The service trace must carry batch membership spans whenever the
	// batcher flushed multi-member carriers.
	if pt.Batches > 0 {
		var spans, members int
		for _, ev := range res.EventsSvc {
			switch ev.Kind {
			case telemetry.KindSvcBatch:
				spans++
			case telemetry.KindSvcBatchMember:
				members++
			}
		}
		if spans != pt.Batches || members != pt.BatchedCmds {
			t.Fatalf("batch spans %d/%d, members %d/%d",
				spans, pt.Batches, members, pt.BatchedCmds)
		}
	}
}

// TestServiceTransparentMatchesThroughput: with every service feature
// disabled the study must reduce to the open-loop throughput study — same
// outcomes, and a byte-identical sink-layer trace.
func TestServiceTransparentMatchesThroughput(t *testing.T) {
	sOpts := transparentOpts()
	sOpts.Trace = true
	if !sOpts.Transparent() {
		t.Fatal("opts not transparent")
	}
	sRes, err := RunServiceStudy(smallScenario(7), ProtoTele, sOpts)
	if err != nil {
		t.Fatal(err)
	}

	tOpts := DefaultThroughputOpts()
	tOpts.Mode = "open"
	tOpts.Warmup = sOpts.Warmup
	tOpts.Ops = sOpts.Ops
	tOpts.Rates = sOpts.Rates
	tOpts.Dist = sOpts.Dist
	tOpts.Window = sOpts.Window
	tOpts.PerGroup = sOpts.PerGroup
	tOpts.GroupBits = sOpts.GroupBits
	tOpts.Retries = sOpts.Retries
	tOpts.OpBudget = sOpts.OpBudget
	tOpts.MaxRun = sOpts.MaxRun
	tOpts.Trace = true
	tRes, err := RunThroughputStudy(smallScenario(7), ProtoTele, tOpts)
	if err != nil {
		t.Fatal(err)
	}

	sp, tp := sRes.Points[0], tRes.Points[0]
	if sp.Svc.OK != tp.OK || sp.Svc.Failed != tp.Failed || sp.Svc.Unresolved != tp.Unresolved {
		t.Fatalf("transparent outcomes diverge: svc ok=%d failed=%d unresolved=%d, throughput ok=%d failed=%d unresolved=%d",
			sp.Svc.OK, sp.Svc.Failed, sp.Svc.Unresolved, tp.OK, tp.Failed, tp.Unresolved)
	}
	if sp.Batches != 0 || sp.Shed != 0 || sp.Delayed != 0 ||
		sp.CacheHits+sp.CacheMisses != 0 {
		t.Fatalf("transparent run exercised service features: %+v", sp)
	}

	render := func(evs []telemetry.Event) []byte {
		var sb bytes.Buffer
		if err := telemetry.WriteJSONL(&sb, evs); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes()
	}
	base, svc, thr := render(sRes.EventsBase), render(sRes.EventsSvc), render(tRes.Events)
	if !bytes.Equal(base, thr) {
		t.Fatalf("transparent service trace differs from throughput trace (%d vs %d bytes)", len(base), len(thr))
	}
	if !bytes.Equal(svc, base) {
		t.Fatal("transparent service sub-run trace differs from its own baseline")
	}
}

// TestServiceReplicationDeterministic: parallel seed replication must
// render byte-identical reports, CSVs, and traces to the serial run.
func TestServiceReplicationDeterministic(t *testing.T) {
	seeds := DeriveSeeds(13, 2)
	opts := svcTestOpts()
	opts.Trace = true

	render := func(workers int) ([]byte, []byte, []byte) {
		res, err := Replicate(Replicator{Workers: workers}, seeds, serviceRun(smallScenario, ProtoTele, opts), MergeServiceResults)
		if err != nil {
			t.Fatal(err)
		}
		var report, csvOut, events bytes.Buffer
		WriteServiceReport(&report, res)
		if err := WriteServiceCSV(&csvOut, res); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&events, res.EventsBase); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&events, res.EventsSvc); err != nil {
			t.Fatal(err)
		}
		return report.Bytes(), csvOut.Bytes(), events.Bytes()
	}

	serialRep, serialCSV, serialEv := render(1)
	parallelRep, parallelCSV, parallelEv := render(4)
	if !bytes.Equal(serialRep, parallelRep) {
		t.Fatalf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialRep, parallelRep)
	}
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatalf("parallel CSV differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialCSV, parallelCSV)
	}
	if !bytes.Equal(serialEv, parallelEv) {
		t.Fatal("parallel telemetry stream differs from serial")
	}
}

func TestServiceStudyValidation(t *testing.T) {
	opts := svcTestOpts()
	opts.Rates = nil
	if _, err := RunServiceStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("empty rate sweep accepted")
	}
	opts = svcTestOpts()
	opts.Dist = "bogus"
	if _, err := RunServiceStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// goldenServiceResult is a hand-built fixture exercising every column of
// the service report and CSV.
func goldenServiceResult() *ServiceResult {
	res := &ServiceResult{
		Proto:    "TeleAdjust",
		Scenario: "golden-grid",
		Dist:     "hotspot",
	}
	p1 := &ServicePoint{
		Label: "rate=0.50", Ops: 120,
		Base: ServiceSide{Offered: 0.44, Goodput: 0.137, OK: 82, Failed: 38,
			Latency: &stats.Series{}},
		Svc: ServiceSide{Offered: 0.41, Goodput: 0.167, OK: 94, Failed: 26,
			Latency: &stats.Series{}},
		Batches: 23, BatchedCmds: 50,
		CacheHits: 22, CacheMisses: 75,
	}
	for _, v := range []float64{88.1, 142.7, 179.3, 205.5, 390.2} {
		p1.Base.Latency.Add(v)
	}
	for _, v := range []float64{31.8, 60.4, 82.3, 110.9, 247.6} {
		p1.Svc.Latency.Add(v)
	}
	p2 := &ServicePoint{
		Label: "rate=2.00", Ops: 120,
		Base: ServiceSide{Offered: 1.34, Goodput: 0.159, OK: 96, Failed: 24,
			Latency: &stats.Series{}},
		Svc: ServiceSide{Offered: 1.21, Goodput: 0.205, OK: 104, Failed: 9,
			Unresolved: 1, Latency: &stats.Series{}},
		Shed: 4, Delayed: 2,
		Batches: 31, BatchedCmds: 88,
		CacheHits: 19, CacheMisses: 93,
	}
	for _, v := range []float64{120.4, 201.8, 248.4, 300.0, 511.7} {
		p2.Base.Latency.Add(v)
	}
	for _, v := range []float64{58.2, 101.3, 140.2, 188.8, 352.1} {
		p2.Svc.Latency.Add(v)
	}
	res.Points = []*ServicePoint{p1, p2}
	return res
}

func TestWriteServiceReportGolden(t *testing.T) {
	var sb bytes.Buffer
	WriteServiceReport(&sb, goldenServiceResult())
	checkGolden(t, "service_report.golden", sb.Bytes())
}

func TestWriteServiceCSVGolden(t *testing.T) {
	var sb bytes.Buffer
	if err := WriteServiceCSV(&sb, goldenServiceResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "service_csv.golden", sb.Bytes())
}
