package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

func codecStudyOpts() CodingSchemesOpts {
	return CodingSchemesOpts{
		Warmup:   2 * time.Minute,
		Packets:  6,
		Interval: 16 * time.Second,
		Drain:    30 * time.Second,
		Joins:    1,
	}
}

// goldenCodingSchemesResult is a hand-built fixture exercising every
// column of the codec-comparison report.
func goldenCodingSchemesResult() *CodingSchemesResult {
	mk := func(name string, lens []float64, churn, recodes, hdr, sends uint64,
		sent, del, skip int, conv float64) *CodecCell {
		c := &CodecCell{
			Codec: name, Converged: conv, CodeLen: &stats.Series{},
			Churn: churn, CodeChanges: recodes,
			HeaderBytes: hdr, ControlSends: sends,
			Sent: sent, Delivered: del, Skipped: skip,
		}
		for _, v := range lens {
			c.CodeLen.Add(v)
		}
		return c
	}
	return &CodingSchemesResult{
		Scenario: "golden-grid",
		Codecs: []*CodecCell{
			mk("paper", []float64{2, 3, 5, 6, 8}, 3, 12, 40, 20, 20, 19, 0, 0.99),
			mk("treeexplorer", []float64{2, 2, 4, 5, 7}, 1, 9, 34, 20, 20, 18, 1, 0.985),
			mk("huffman", []float64{1, 2, 4, 4, 6}, 5, 15, 30, 20, 20, 17, 0, 0.97),
		},
	}
}

func TestWriteCodingSchemesReportGolden(t *testing.T) {
	var sb bytes.Buffer
	WriteCodingSchemesReport(&sb, goldenCodingSchemesResult())
	checkGolden(t, "coding_schemes_report.golden", sb.Bytes())
}

func TestWriteCodingSchemesCSVGolden(t *testing.T) {
	// Two scenarios under one header: the multi-scenario CLI path
	// (-scenario a,b -study coding-schemes) writes exactly this shape.
	second := goldenCodingSchemesResult()
	second.Scenario = "golden-line"
	var sb bytes.Buffer
	if err := WriteCodingSchemesCSV(&sb, goldenCodingSchemesResult(), second); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "coding_schemes.csv.golden", sb.Bytes())
}

func TestMergeCodingSchemesResults(t *testing.T) {
	a := goldenCodingSchemesResult()
	b := goldenCodingSchemesResult()
	m := MergeCodingSchemesResults([]*CodingSchemesResult{a, b})
	if len(m.Codecs) != 3 {
		t.Fatalf("merged codec count = %d", len(m.Codecs))
	}
	c := m.Codecs[0]
	if c.Sent != 40 || c.Delivered != 38 || c.Churn != 6 || c.HeaderBytes != 80 {
		t.Fatalf("counters not summed: %+v", c)
	}
	if c.CodeLen.Count() != 10 {
		t.Fatalf("code-length samples not concatenated: %d", c.CodeLen.Count())
	}
	if c.Converged != 0.99 {
		t.Fatalf("converged not averaged: %v", c.Converged)
	}
	if MergeCodingSchemesResults(nil) != nil {
		t.Fatal("empty merge must return nil")
	}
}

// TestCodingSchemesStudySmall runs the full three-codec comparison on the
// 8-node line: every codec must converge, deliver probes, and put
// destination-code header bytes on the air. The mid-probe reboot exercises
// each codec's late-join path.
func TestCodingSchemesStudySmall(t *testing.T) {
	res, err := RunCodingSchemesStudy(smallScenario(21), core.CodecNames(), codecStudyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Codecs) != 3 {
		t.Fatalf("cells = %d, want 3", len(res.Codecs))
	}
	for i, name := range core.CodecNames() {
		c := res.Codecs[i]
		if c.Codec != name {
			t.Fatalf("cell %d codec = %q, want %q", i, c.Codec, name)
		}
		if c.Converged < 0.99 {
			t.Errorf("%s: converged %.2f on a strong line, want ~1", c.Codec, c.Converged)
		}
		if c.CodeLen.Count() != 7 {
			t.Errorf("%s: %d code-length samples, want 7", c.Codec, c.CodeLen.Count())
		}
		if c.CodeLen.Max() < 3 {
			t.Errorf("%s: max code length %.0f bits; the 7-hop tail must be deeper", c.Codec, c.CodeLen.Max())
		}
		if c.Sent != 6 {
			t.Errorf("%s: sent %d, want 6", c.Codec, c.Sent)
		}
		if c.Delivered < 3 {
			t.Errorf("%s: delivered %d of 6 with one reboot", c.Codec, c.Delivered)
		}
		if c.ControlSends == 0 || c.HeaderBytes == 0 {
			t.Errorf("%s: header cost not measured (%d sends, %d bytes)",
				c.Codec, c.ControlSends, c.HeaderBytes)
		}
		if hb := c.HeaderBytesPerSend(); hb < 1 || hb > 33 {
			t.Errorf("%s: %.2f header bytes per send implausible", c.Codec, hb)
		}
	}
	if _, err := RunCodingSchemesStudy(smallScenario(21), nil, codecStudyOpts()); err == nil {
		t.Fatal("empty codec list accepted")
	}
	if _, err := RunCodingSchemesStudy(smallScenario(21), []string{"bogus"}, codecStudyOpts()); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestCodingSchemesParallelReplication extends the Replicator determinism
// contract to the codec study: a multi-worker merge must render
// byte-identically to the serial merge.
func TestCodingSchemesParallelReplication(t *testing.T) {
	seeds := DeriveSeeds(17, 2)
	opts := CodingSchemesOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
	}
	codecs := []string{"paper", "treeexplorer"}
	serial, err := Replicate(Replicator{Workers: 1}, seeds, schemesRun(smallScenario, codecs, opts), MergeCodingSchemesResults)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(Replicator{Workers: 2}, seeds, schemesRun(smallScenario, codecs, opts), MergeCodingSchemesResults)
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	WriteCodingSchemesReport(&sb, serial)
	WriteCodingSchemesReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel codec merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	if got := serial.Codecs[0].Sent; got != 3*len(seeds) {
		t.Fatalf("merged sent = %d, want %d", got, 3*len(seeds))
	}
	if _, err := Replicate(Replicator{}, nil, schemesRun(smallScenario, codecs, opts), MergeCodingSchemesResults); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// TestPaperCodecTraceByteIdentical is the refactor's regression bar: an
// explicit Codec="paper" selection must produce the exact same telemetry
// trace as the pre-refactor default (Codec unset), under both serial and
// parallel replication.
func TestPaperCodecTraceByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(19, 2)
	opts := replicateOpts()
	opts.Trace = true
	withCodec := func(seed uint64) Scenario {
		s := smallScenario(seed)
		s.Codec = "paper"
		return s
	}
	base, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(smallScenario, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Replicate(Replicator{Workers: 2}, seeds, controlRun(withCodec, ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Events) == 0 {
		t.Fatal("tracing enabled but no events collected")
	}
	var bb, pb bytes.Buffer
	if err := telemetry.WriteJSONL(&bb, base.Events); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&pb, paper.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bb.Bytes(), pb.Bytes()) {
		t.Fatalf("codec=paper trace diverged from the default: %d vs %d bytes", bb.Len(), pb.Len())
	}
}

// TestPaperCodecTraceByteIdenticalRefGrid repeats the byte-identity bar on
// the 100-node reference grid. Skipped under -short.
func TestPaperCodecTraceByteIdenticalRefGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("long regression test")
	}
	opts := ControlOpts{
		Warmup:   3 * time.Minute,
		Packets:  4,
		Interval: 15 * time.Second,
		Drain:    20 * time.Second,
		Trace:    true,
	}
	build := func(codec string) func(seed uint64) Scenario {
		return func(seed uint64) Scenario {
			s := ReferenceGrid(seed)
			s.Codec = codec
			s.TuneControlTimeouts(14 * time.Second)
			return s
		}
	}
	seeds := []uint64{1}
	base, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(build(""), ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Replicate(Replicator{Workers: 1}, seeds, controlRun(build("paper"), ProtoReTele, opts), MergeControlResults)
	if err != nil {
		t.Fatal(err)
	}
	var bb, pb bytes.Buffer
	if err := telemetry.WriteJSONL(&bb, base.Events); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&pb, paper.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bb.Bytes(), pb.Bytes()) {
		t.Fatalf("codec=paper ref-grid trace diverged from the default: %d vs %d bytes", bb.Len(), pb.Len())
	}
}

// TestBuildRejectsUnknownCodec pins the Config.Codec resolution error.
func TestBuildRejectsUnknownCodec(t *testing.T) {
	s := smallScenario(22)
	s.Codec = "morse"
	if _, err := Build(s.config(ProtoTeleAdjust)); err == nil {
		t.Fatal("unknown codec accepted by Build")
	}
}
