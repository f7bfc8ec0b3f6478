package experiment

import (
	"strings"
	"testing"
	"time"

	"teleadjust/internal/stats"
)

func TestBarTable(t *testing.T) {
	b := stats.NewByKey()
	b.Add(1, 1.0)
	b.Add(2, 0.5)
	b.Add(3, 0.0)
	out := BarTable(b, 1)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	full := strings.Count(lines[0], "█")
	half := strings.Count(lines[1], "█")
	zero := strings.Count(lines[2], "█")
	if full != 30 || half != 15 || zero != 0 {
		t.Fatalf("bars = %d/%d/%d, want 30/15/0", full, half, zero)
	}
	// Auto-scaling path.
	auto := BarTable(b, 0)
	if strings.Count(strings.Split(auto, "\n")[0], "█") != 30 {
		t.Fatal("auto scale did not normalize to the max mean")
	}
}

func TestWriteReportsSmoke(t *testing.T) {
	var sb strings.Builder
	cr := &CodingResult{
		Scenario:           "t",
		CodeLenByHop:       stats.NewByKey(),
		ChildrenByHop:      stats.NewByKey(),
		ConvergenceBeacons: &stats.Series{},
		ReverseVsCTP:       &stats.Scatter{},
	}
	cr.CodeLenByHop.Add(1, 4)
	WriteCodingReport(&sb, cr)
	if !strings.Contains(sb.String(), "Fig 6a") {
		t.Fatal("coding report missing sections")
	}
	sb.Reset()
	res := &ControlResult{
		Proto:        "Tele",
		Scenario:     "t",
		Sent:         1,
		Delivered:    1,
		PDRByHop:     stats.NewByKey(),
		LatencyByHop: stats.NewByKey(),
		ATHX:         &stats.Scatter{},
	}
	res.PDRByHop.Add(2, 1)
	WriteControlReport(&sb, res)
	out := sb.String()
	for _, want := range []string{"Fig 7", "Fig 8", "Fig 9", "Fig 10", "Table III", "█"} {
		if !strings.Contains(out, want) {
			t.Fatalf("control report missing %q", want)
		}
	}
	sb.Reset()
	sres := &ScopeStudyResult{Scenario: "t", Coverage: &stats.Series{}}
	WriteScopeReport(&sb, sres)
	if !strings.Contains(sb.String(), "Scoped dissemination") {
		t.Fatal("scope report missing header")
	}
	sb.Reset()
	WriteComparisonSummary(&sb, []*ControlResult{res})
	if !strings.Contains(sb.String(), "protocol comparison") {
		t.Fatal("summary missing header")
	}
}

func TestCSVExports(t *testing.T) {
	b := stats.NewByKey()
	b.Add(1, 0.5)
	b.Add(2, 0.75)
	var sb strings.Builder
	res := &ControlResult{
		Proto: "Tele", Scenario: "t", Sent: 2,
		PDRByHop:     b,
		LatencyByHop: stats.NewByKey(),
		ATHX:         &stats.Scatter{},
		TxPerPacket:  4.4,
	}
	if err := WriteControlCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig7_pdr,Tele,t,1") || !strings.Contains(sb.String(), "table3_tx") {
		t.Fatalf("bad control csv:\n%s", sb.String())
	}
	sb.Reset()
	cr := &CodingResult{
		Scenario:           "t",
		CodeLenByHop:       b,
		ChildrenByHop:      stats.NewByKey(),
		ConvergenceBeacons: &stats.Series{},
		ReverseVsCTP:       &stats.Scatter{},
	}
	if err := WriteCodingCSV(&sb, cr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig6a_codelen,t,1") {
		t.Fatalf("bad coding csv:\n%s", sb.String())
	}
}

func TestTopologySVG(t *testing.T) {
	scn := smallScenario(10)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := net.WriteTopologySVG(&sb); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<circle") != 8 {
		t.Fatalf("circles = %d, want 8 nodes", strings.Count(svg, "<circle"))
	}
	if strings.Count(svg, "<line") < 7 {
		t.Fatalf("tree edges = %d, want ≥7", strings.Count(svg, "<line"))
	}
	// Converged codes must appear in the labels.
	if !strings.Contains(svg, ":0") {
		t.Fatal("no path codes in labels")
	}
}
