package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

type captureHandler struct {
	frames []*Frame
	txDone int
}

func (h *captureHandler) OnFrame(f *Frame) { h.frames = append(h.frames, f) }
func (h *captureHandler) OnTxDone()        { h.txDone++ }

// testMedium builds a quiet-noise line network with the given spacing.
func testMedium(t *testing.T, n int, spacing float64) (*sim.Engine, *Medium) {
	t.Helper()
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0 // deterministic gains for unit tests
	m, err := NewMedium(eng, topology.Line(n, spacing), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestAirtime(t *testing.T) {
	p := DefaultParams()
	// 30-byte MAC frame + 6 bytes PHY = 36 bytes = 288 bits at 250kbps.
	want := time.Duration(float64(288) / 250000 * float64(time.Second))
	if got := p.Airtime(30); got != want {
		t.Fatalf("Airtime(30) = %v, want %v", got, want)
	}
}

func TestPathLossMonotone(t *testing.T) {
	p := DefaultParams()
	prev := p.PathLossDB(1)
	for d := 2.0; d < 500; d *= 1.5 {
		cur := p.PathLossDB(d)
		if cur <= prev {
			t.Fatalf("path loss not increasing at %vm", d)
		}
		prev = cur
	}
	// Exponent 4: doubling distance adds ~12 dB.
	delta := p.PathLossDB(20) - p.PathLossDB(10)
	if math.Abs(delta-12.04) > 0.1 {
		t.Fatalf("doubling distance adds %v dB, want ~12", delta)
	}
}

func TestPRRCurveShape(t *testing.T) {
	// PRR must be ~0 at very low SNR, ~1 at high SNR, monotone between.
	const frame = 40
	if p := prrFromSNR(dbFactor(-5), frame); p > 0.01 {
		t.Fatalf("PRR at -5dB = %v, want ~0", p)
	}
	if p := prrFromSNR(dbFactor(10), frame); p < 0.99 {
		t.Fatalf("PRR at 10dB = %v, want ~1", p)
	}
	prev := 0.0
	for db := -6.0; db <= 12; db += 0.5 {
		cur := prrFromSNR(dbFactor(db), frame)
		if cur < prev-1e-9 {
			t.Fatalf("PRR not monotone at %v dB", db)
		}
		prev = cur
	}
	// The transition region exists (gray zone).
	mid := prrFromSNR(dbFactor(3), frame)
	if mid < 0.001 || mid > 0.9999 {
		t.Logf("note: PRR at 3dB = %v", mid)
	}
}

func TestPRRLongerFramesLoseMore(t *testing.T) {
	snr := dbFactor(4)
	if prrFromSNR(snr, 100) >= prrFromSNR(snr, 20) {
		t.Fatal("longer frame should have lower PRR at same SNR")
	}
}

func TestPowerLevelDBm(t *testing.T) {
	if got := PowerLevelDBm(31); got != 0 {
		t.Fatalf("level 31 = %v, want 0", got)
	}
	if got := PowerLevelDBm(3); got != -25 {
		t.Fatalf("level 3 = %v, want -25", got)
	}
	// Level 2 extrapolates below -25.
	if got := PowerLevelDBm(2); got >= -25 {
		t.Fatalf("level 2 = %v, want < -25", got)
	}
	// Monotone increasing in level.
	prev := PowerLevelDBm(0)
	for l := 1; l <= 31; l++ {
		cur := PowerLevelDBm(l)
		if cur < prev {
			t.Fatalf("power not monotone at level %d", l)
		}
		prev = cur
	}
}

func TestDeliveryBetweenCloseNodes(t *testing.T) {
	eng, m := testMedium(t, 2, 5) // 5 m apart: excellent link
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	tx := m.Radio(0)
	tx.SetOn(true)
	f := &Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}
	if err := tx.Transmit(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(h.frames))
	}
	if h.frames[0] != f {
		t.Fatal("delivered wrong frame")
	}
}

func TestNoDeliveryBeyondRange(t *testing.T) {
	eng, m := testMedium(t, 2, 400) // 400 m at exponent 4: unreachable
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	tx := m.Radio(0)
	tx.SetOn(true)
	err := tx.Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatal("frame delivered across 400m at exponent 4")
	}
}

func TestSleepingRadioMissesFrame(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	// rx stays off.
	tx := m.Radio(0)
	tx.SetOn(true)
	if err := tx.Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatal("sleeping radio received a frame")
	}
}

func TestWakeMidFrameCannotDecode(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	tx := m.Radio(0)
	tx.SetOn(true)
	f := &Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 100}
	if err := tx.Transmit(f, 0); err != nil {
		t.Fatal(err)
	}
	// Wake halfway through the frame: preamble missed.
	eng.Schedule(m.Params().Airtime(100)/2, func() { rx.SetOn(true) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatal("radio decoded a frame whose preamble it slept through")
	}
}

func TestCCABusyDuringTransmission(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	rx := m.Radio(1)
	rx.SetOn(true)
	tx := m.Radio(0)
	tx.SetOn(true)
	var busyDuring, busyAfter bool
	if err := tx.Transmit(&Frame{Kind: FrameData, Src: 0, Size: 100}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(m.Params().Airtime(100)/2, func() { busyDuring = rx.CCABusy() })
	eng.Schedule(m.Params().Airtime(100)+time.Millisecond, func() { busyAfter = rx.CCABusy() })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !busyDuring {
		t.Fatal("CCA idle during nearby transmission")
	}
	if busyAfter {
		t.Fatal("CCA busy after transmission ended")
	}
}

// TestAirPowerSumsInArrivalOrder pins the order of the air-power sums.
// Float addition does not associate, so CCA's total and the interference
// a locked reception sees must add the frames on the air in one fixed
// order — arrival order — and keep it when a frame in the middle leaves.
func TestAirPowerSumsInArrivalOrder(t *testing.T) {
	// Four senders at different distances from node 4; the second
	// arrival is the shortest frame. The transmit powers are picked so
	// that summing in reverse order gives a different total, which the
	// test checks, so it would catch any other order.
	eng, m := testMedium(t, 5, 4)
	rx := m.Radio(4)
	rx.SetOn(true)
	sizes := []int{100, 20, 90, 110}
	powers := []float64{-5, -2, -2, 0}
	for i, size := range sizes {
		r := m.Radio(NodeID(i))
		r.SetOn(true)
		if err := r.Transmit(&Frame{Kind: FrameData, Src: NodeID(i), Size: size}, powers[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, wantLen int) {
		t.Helper()
		if len(rx.air) != wantLen {
			t.Fatalf("%s: %d frames on the air, want %d", when, len(rx.air), wantLen)
		}
		for i := 1; i < len(rx.air); i++ {
			if rx.air[i].id <= rx.air[i-1].id {
				t.Fatalf("%s: air list out of arrival order: %v", when, rx.air)
			}
		}
		noise := rx.medium.noiseAt(rx.id, eng.Now())
		want, reversed := noise, noise
		for i := range rx.air {
			want += rx.air[i].mw
			reversed += rx.air[len(rx.air)-1-i].mw
		}
		if want == reversed {
			t.Fatalf("%s: reverse-order sum equals arrival-order sum; pick powers that tell them apart", when)
		}
		for rep := 0; rep < 50; rep++ {
			if got := rx.energyMW(); got != want {
				t.Fatalf("%s: energy %v, arrival-order sum %v", when, got, want)
			}
			for _, ex := range rx.air {
				var wantI float64
				for _, a := range rx.air {
					if a.id != ex.id {
						wantI += a.mw
					}
				}
				if got := rx.interferenceMW(ex.id); got != wantI {
					t.Fatalf("%s: interference excluding %d = %v, arrival-order sum %v", when, ex.id, got, wantI)
				}
			}
		}
		if rx.CCABusy() != (mwToDBm(want) > m.Params().CCAThresholdDBm) {
			t.Fatalf("%s: CCABusy disagrees with the arrival-order total", when)
		}
	}
	check("all on the air", len(sizes))
	// Run past the end of the shortest frame, the second arrival.
	if err := eng.Run(m.Params().Airtime(sizes[1]) + time.Microsecond); err != nil {
		t.Fatal(err)
	}
	check("after the second arrival left", len(sizes)-1)
}

func TestCollisionCorruptsWeakerFrame(t *testing.T) {
	// Nodes 0 and 2 both transmit to node 1; equal distances mean SINR ~0dB
	// for whichever frame node 1 locks onto, which yields PRR ~0.
	eng, m := testMedium(t, 3, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	a, b := m.Radio(0), m.Radio(2)
	a.SetOn(true)
	b.SetOn(true)
	if err := a.Transmit(&Frame{Kind: FrameData, Src: 0, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Transmit(&Frame{Kind: FrameData, Src: 2, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatalf("collision delivered %d frames", len(h.frames))
	}
	if rx.Counters().RxCorrupted == 0 {
		t.Fatal("collision not recorded as corruption")
	}
}

func TestLateInterferenceCorrupts(t *testing.T) {
	eng, m := testMedium(t, 3, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	a, b := m.Radio(0), m.Radio(2)
	a.SetOn(true)
	b.SetOn(true)
	if err := a.Transmit(&Frame{Kind: FrameData, Src: 0, Size: 100}, 0); err != nil {
		t.Fatal(err)
	}
	// b starts halfway through a's frame: rx already locked on a, but the
	// interference burst must still corrupt it.
	eng.Schedule(m.Params().Airtime(100)/2, func() {
		if err := b.Transmit(&Frame{Kind: FrameData, Src: 2, Size: 30}, 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatal("frame survived equal-power mid-frame interference")
	}
}

func TestTransmitErrors(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	r := m.Radio(0)
	if err := r.Transmit(&Frame{Size: 10}, 0); err != ErrRadioOff {
		t.Fatalf("transmit while off = %v, want ErrRadioOff", err)
	}
	r.SetOn(true)
	if err := r.Transmit(&Frame{Size: 100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Transmit(&Frame{Size: 10}, 0); err != ErrTxBusy {
		t.Fatalf("transmit while busy = %v, want ErrTxBusy", err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Transmitting() {
		t.Fatal("still transmitting after airtime")
	}
}

func TestOnTxDoneFires(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	r := m.Radio(0)
	h := &captureHandler{}
	r.SetHandler(h)
	r.SetOn(true)
	if err := r.Transmit(&Frame{Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if h.txDone != 1 {
		t.Fatalf("txDone = %d, want 1", h.txDone)
	}
}

func TestOnTimeAccounting(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	r := m.Radio(0)
	eng.Schedule(100*time.Millisecond, func() { r.SetOn(true) })
	eng.Schedule(300*time.Millisecond, func() { r.SetOn(false) })
	eng.Schedule(500*time.Millisecond, func() { r.SetOn(true) })
	eng.Schedule(600*time.Millisecond, func() { r.SetOn(false) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.OnTime(); got != 300*time.Millisecond {
		t.Fatalf("OnTime = %v, want 300ms", got)
	}
}

func TestExpectedPRRMatchesGeometry(t *testing.T) {
	_, m := testMedium(t, 3, 5)
	// Exponent-4 range at 0 dBm with RefLoss 55 is ~10 m: 5 m is a strong
	// link, 10 m is marginal.
	p1 := m.ExpectedPRR(0, 1, 0, 40)
	p2 := m.ExpectedPRR(0, 2, 0, 40)
	if p1 < 0.99 {
		t.Fatalf("PRR at 5m = %v, want ~1", p1)
	}
	if p2 > p1 {
		t.Fatal("PRR should not increase with distance")
	}
	if m.ExpectedPRR(0, 2, -60, 40) != 0 {
		t.Fatal("PRR at tiny power should be 0 (below sensitivity)")
	}
}

func TestCountersTrackKinds(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	r := m.Radio(0)
	r.SetOn(true)
	if err := r.Transmit(&Frame{Kind: FrameData, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Transmit(NewAck(0, &Frame{Src: 1, Seq: 9}), 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.TxData != 1 || c.TxAck != 1 {
		t.Fatalf("counters = %+v, want 1 data + 1 ack", c)
	}
}

func TestNewAck(t *testing.T) {
	f := &Frame{Kind: FrameData, Src: 7, Seq: 42}
	ack := NewAck(3, f)
	if ack.Kind != FrameAck || ack.Src != 3 || ack.Dst != 7 || ack.AckSrc != 7 || ack.AckSeq != 42 {
		t.Fatalf("bad ack: %+v", ack)
	}
}

func dbFactor(db float64) float64 { return math.Pow(10, db/10) }

func TestWifiInterferenceCorruptsFrames(t *testing.T) {
	// With a strong interferer, a marginal link's delivery rate collapses.
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := NewMedium(eng, topology.Line(2, 8), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(withWifi bool) uint64 {
		eng := sim.NewEngine()
		m, err := NewMedium(eng, topology.Line(2, 8), nil, params, 1)
		if err != nil {
			t.Fatal(err)
		}
		if withWifi {
			w := noise.NewWifiInterferer(sim.NewRNG(9), -60)
			m.SetInterferer(w)
		}
		rx := m.Radio(1)
		rx.SetOn(true)
		tx := m.Radio(0)
		tx.SetOn(true)
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 5 * time.Millisecond
			eng.Schedule(at, func() {
				_ = tx.Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0)
			})
		}
		if err := eng.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return rx.Counters().RxDelivered
	}
	clean := deliver(false)
	noisy := deliver(true)
	if clean < 190 {
		t.Fatalf("clean link delivered %d/200", clean)
	}
	if noisy >= clean {
		t.Fatalf("interference did not reduce delivery: %d vs %d", noisy, clean)
	}
	_ = med
}

func TestFadingChangesLinkOverTime(t *testing.T) {
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	params.FadingSigmaDB = 3
	params.FadingMinPeriod = 10 * time.Second
	params.FadingMaxPeriod = 20 * time.Second
	params.TxJitterSigmaDB = 0
	m, err := NewMedium(eng, topology.Line(2, 8), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sample the instantaneous gain across a fading period.
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		g := m.gainAt(0, 1, at)
		seen[fmt.Sprintf("%.1f", g)] = true
	}
	if len(seen) < 5 {
		t.Fatalf("fading produced only %d distinct gains", len(seen))
	}
}

func TestLinkOffsetSeversAndRestores(t *testing.T) {
	send := func(m *Medium, eng *sim.Engine, h *captureHandler) {
		tx := m.Radio(0)
		if err := tx.Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(eng.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	eng, m := testMedium(t, 2, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	m.Radio(0).SetOn(true)

	m.AddLinkOffsetDB(0, 1, -200)
	if got := m.LinkOffsetDB(0, 1); got != -200 {
		t.Fatalf("LinkOffsetDB = %v, want -200", got)
	}
	send(m, eng, h)
	if len(h.frames) != 0 {
		t.Fatal("frame delivered over a severed link")
	}
	// Reverse direction untouched.
	if got := m.LinkOffsetDB(1, 0); got != 0 {
		t.Fatalf("reverse offset = %v, want 0", got)
	}
	// Restore (additive inverse) and the link works again.
	m.AddLinkOffsetDB(0, 1, 200)
	send(m, eng, h)
	if len(h.frames) != 1 {
		t.Fatalf("delivered %d frames after restore, want 1", len(h.frames))
	}
}

func TestDropFnDiscardsAsCorrupted(t *testing.T) {
	eng, m := testMedium(t, 2, 5)
	rx := m.Radio(1)
	h := &captureHandler{}
	rx.SetHandler(h)
	rx.SetOn(true)
	m.Radio(0).SetOn(true)
	drops := 0
	m.SetDropFn(func(id NodeID, f *Frame) bool {
		drops++
		return id == 1
	})
	if err := m.Radio(0).Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 0 {
		t.Fatal("dropped frame still delivered")
	}
	if drops != 1 {
		t.Fatalf("drop filter consulted %d times, want 1", drops)
	}
	c := rx.Counters()
	if c.RxCorrupted != 1 || c.RxDelivered != 0 {
		t.Fatalf("counters = %+v, want the drop counted as corruption", c)
	}
	// Removing the filter restores delivery.
	m.SetDropFn(nil)
	if err := m.Radio(0).Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(eng.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 1 {
		t.Fatalf("delivered %d after filter removal, want 1", len(h.frames))
	}
}
