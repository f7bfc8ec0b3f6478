package sink

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// fakeProto is a deterministic in-memory Dispatcher: each dispatch
// resolves after a fixed latency, failing the first failures[dst]
// attempts to a destination. It records the peak number of concurrent
// in-flight operations, overall and per destination.
type fakeProto struct {
	eng         *sim.Engine
	latency     time.Duration
	failures    map[radio.NodeID]int
	noRoute     map[radio.NodeID]bool
	uidSeq      uint32
	inflight    int
	maxInflight int
	perDst      map[radio.NodeID]int
	maxPerDst   int
	dispatched  []radio.NodeID
}

func newFakeProto(eng *sim.Engine, latency time.Duration) *fakeProto {
	return &fakeProto{
		eng:      eng,
		latency:  latency,
		failures: map[radio.NodeID]int{},
		noRoute:  map[radio.NodeID]bool{},
		perDst:   map[radio.NodeID]int{},
	}
}

func (f *fakeProto) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	if f.noRoute[dst] {
		return 0, protocol.ErrNoRoute
	}
	f.uidSeq++
	uid := f.uidSeq
	f.inflight++
	f.perDst[dst]++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	if f.perDst[dst] > f.maxPerDst {
		f.maxPerDst = f.perDst[dst]
	}
	f.dispatched = append(f.dispatched, dst)
	ok := true
	if f.failures[dst] > 0 {
		f.failures[dst]--
		ok = false
	}
	f.eng.Schedule(f.latency, func() {
		f.inflight--
		f.perDst[dst]--
		cb(protocol.Result{UID: uid, Dst: dst, OK: ok, Latency: f.latency})
	})
	return uid, nil
}

// collect submits n ops to destinations 1..n and returns the outcomes in
// completion order after the engine drains.
func collect(t *testing.T, eng *sim.Engine, s *Scheduler, n int) []Outcome {
	t.Helper()
	var outs []Outcome
	for i := 1; i <= n; i++ {
		if _, err := s.Submit(radio.NodeID(i), "op", func(o Outcome) { outs = append(outs, o) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := eng.RunAll(100000); err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestWindowBoundsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	s := New(eng, fp, Config{Window: 4, PerGroup: 1})
	outs := collect(t, eng, s, 20)
	if fp.maxInflight != 4 {
		t.Fatalf("peak in-flight = %d, want exactly the window 4", fp.maxInflight)
	}
	if len(outs) != 20 {
		t.Fatalf("resolved %d of 20 ops", len(outs))
	}
	for _, o := range outs {
		if !o.OK || o.Err != nil {
			t.Fatalf("op %d failed: ok=%v err=%v", o.Ticket, o.OK, o.Err)
		}
	}
	if !s.Quiesced() {
		t.Fatal("scheduler not quiesced after drain")
	}
	if st := s.Stats(); st.Submitted != 20 || st.CompletedOK != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSharedSubtreeSerialized drives every op into one grouping key: with
// PerGroup 1 the subtree must never carry two concurrent ops, no matter
// how wide the window is.
func TestSharedSubtreeSerialized(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	s := New(eng, fp, Config{Window: 8, PerGroup: 1, GroupBits: 4})
	// All destinations live under the "0101..." branch: identical 4-bit
	// prefix, distinct suffixes.
	s.SetCoder(func(dst radio.NodeID) (core.PathCode, bool) {
		return core.MustCode(fmt.Sprintf("0101%06b", int(dst)%64)), true
	})
	collect(t, eng, s, 10)
	if fp.maxInflight != 1 {
		t.Fatalf("shared subtree reached %d concurrent ops, want 1", fp.maxInflight)
	}
}

// TestDisjointSubtreesPipeline is the counterpart: two subtree groups and
// PerGroup 1 must pipeline to exactly two concurrent ops.
func TestDisjointSubtreesPipeline(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	s := New(eng, fp, Config{Window: 8, PerGroup: 1, GroupBits: 4})
	s.SetCoder(func(dst radio.NodeID) (core.PathCode, bool) {
		branch := "0000"
		if dst%2 == 0 {
			branch = "0111"
		}
		return core.MustCode(fmt.Sprintf("%s%06b", branch, int(dst)%64)), true
	})
	collect(t, eng, s, 10)
	if fp.maxInflight != 2 {
		t.Fatalf("two disjoint subtrees reached %d concurrent ops, want 2", fp.maxInflight)
	}
}

func TestRetryBudgetRecovers(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	fp.failures[3] = 2
	s := New(eng, fp, Config{Window: 2, Retries: 2})
	outs := collect(t, eng, s, 4)
	var got *Outcome
	for i := range outs {
		if outs[i].Dst == 3 {
			got = &outs[i]
		}
	}
	if got == nil || !got.OK || got.Attempts != 3 {
		t.Fatalf("dst 3 outcome = %+v, want OK after 3 attempts", got)
	}
	if st := s.Stats(); st.Retried != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	fp.failures[2] = 10
	s := New(eng, fp, Config{Window: 2, Retries: 1})
	outs := collect(t, eng, s, 3)
	for _, o := range outs {
		if o.Dst != 2 {
			continue
		}
		if o.OK || o.Err != nil || o.Attempts != 2 {
			t.Fatalf("dst 2 outcome = %+v, want protocol failure after 2 attempts", o)
		}
	}
	if st := s.Stats(); st.Failed != 1 || st.CompletedOK != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnroutableIsTerminal(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	fp.noRoute[5] = true
	s := New(eng, fp, Config{Window: 2, Retries: 3})
	outs := collect(t, eng, s, 5)
	for _, o := range outs {
		if o.Dst != 5 {
			continue
		}
		if o.OK || !errors.Is(o.Err, protocol.ErrNoRoute) || o.Attempts != 1 {
			t.Fatalf("unroutable outcome = %+v", o)
		}
	}
	if st := s.Stats(); st.Unroutable != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueFullRejects(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, time.Second)
	s := New(eng, fp, Config{Window: 1, MaxQueue: 2})
	fired := 0
	for i := 1; i <= 5; i++ {
		_, err := s.Submit(radio.NodeID(i), "op", func(Outcome) { fired++ })
		// Op 1 admits immediately; 2 and 3 queue; 4 and 5 must bounce.
		if i <= 3 && err != nil {
			t.Fatalf("submit %d rejected early: %v", i, err)
		}
		if i > 3 && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit %d err = %v, want ErrQueueFull", i, err)
		}
	}
	if err := eng.RunAll(10000); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("%d outcomes fired, want 3", fired)
	}
	if st := s.Stats(); st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpBudgetExpiresQueuedOps(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, 10*time.Second)
	s := New(eng, fp, Config{Window: 1, OpBudget: 5 * time.Second})
	outs := collect(t, eng, s, 3)
	expired := 0
	for _, o := range outs {
		if errors.Is(o.Err, ErrBudget) {
			expired++
			if o.Admitted || o.Attempts != 0 {
				t.Fatalf("expired op was dispatched: %+v", o)
			}
		}
	}
	// Op 1 occupies the window for 10 s; ops 2 and 3 hit their 5 s budget
	// while queued.
	if expired != 2 {
		t.Fatalf("%d ops expired, want 2", expired)
	}
	if st := s.Stats(); st.Expired != 2 || st.CompletedOK != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTelemetryQueueSpans checks that the emitted sink-layer events
// reconstruct into one span per op with coherent phases.
func TestTelemetryQueueSpans(t *testing.T) {
	eng := sim.NewEngine()
	fp := newFakeProto(eng, 2*time.Second)
	fp.failures[2] = 1
	s := New(eng, fp, Config{Window: 1, Retries: 1})
	bus := telemetry.NewBus(eng.Now)
	col := telemetry.NewCollector()
	bus.Subscribe(col, telemetry.LayerSink)
	s.SetTelemetry(bus, 0)

	collect(t, eng, s, 2)
	spans := telemetry.BuildQueueSpans(col.Events())
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	first := spans[0]
	if !first.Admitted || !first.Resolved || !first.OK || first.QueueWait() != 0 {
		t.Fatalf("span 1 = %+v", first)
	}
	second := spans[1]
	if second.Retries != 1 || !second.OK {
		t.Fatalf("span 2 retries=%d ok=%v, want a retried success", second.Retries, second.OK)
	}
	// Op 2 waited behind op 1's 2 s flight, then flew 2+2 s (one failure,
	// one retry).
	if second.QueueWait() != 2*time.Second || second.InFlight() != 4*time.Second {
		t.Fatalf("span 2 wait=%v flight=%v", second.QueueWait(), second.InFlight())
	}
	if second.Total() != second.QueueWait()+second.InFlight() {
		t.Fatal("phases do not compose")
	}
}

// TestSchedulerDeterministic replays the same submission pattern twice
// and requires identical outcome sequences.
func TestSchedulerDeterministic(t *testing.T) {
	run := func() []Outcome {
		eng := sim.NewEngine()
		fp := newFakeProto(eng, 700*time.Millisecond)
		fp.failures[4] = 1
		s := New(eng, fp, Config{Window: 3, PerGroup: 1, GroupBits: 2, Retries: 1})
		s.SetCoder(func(dst radio.NodeID) (core.PathCode, bool) {
			return core.MustCode(fmt.Sprintf("%08b", int(dst)%256)), true
		})
		var outs []Outcome
		for i := 1; i <= 12; i++ {
			id := radio.NodeID(i)
			_, _ = s.Submit(id, "op", func(o Outcome) { outs = append(outs, o) })
		}
		if err := eng.RunAll(100000); err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestGroupKey(t *testing.T) {
	cases := []struct {
		code string
		bits int
		want string
	}{
		{"010111", 4, "0101"},
		{"010111", 0, "010111"},
		{"010111", -3, "010111"},
		{"01", 4, "01"},
		{"", 4, "ε"},
		{"1111", 4, "1111"},
	}
	for _, c := range cases {
		code := core.MustCode(c.code)
		if got := GroupKey(code, c.bits); got != c.want {
			t.Errorf("GroupKey(%q, %d) = %q, want %q", c.code, c.bits, got, c.want)
		}
	}
}
