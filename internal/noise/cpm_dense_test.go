package noise

import (
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"testing"
	"time"

	"teleadjust/internal/sim"
)

// --- Reference implementation ---
//
// mapModel is the pre-dense-index CPM implementation, string-keyed maps
// and per-pattern distributions and all, kept verbatim as the behavioural
// reference: the flat model must consume the RNG identically and emit
// bit-identical samples, or every pinned scenario trace in the repo
// shifts.

// dist is a sparse categorical distribution over quantized noise bins.
type dist struct {
	bins   []uint8
	counts []uint32
	total  uint32
}

func (d *dist) add(bin uint8) {
	for i, b := range d.bins {
		if b == bin {
			d.counts[i]++
			d.total++
			return
		}
	}
	d.bins = append(d.bins, bin)
	d.counts = append(d.counts, 1)
	d.total++
}

func (d *dist) sample(rng *rand.Rand) uint8 {
	if d.total == 0 {
		return quantize(quietFloorDBm) // quiet floor bin
	}
	target := rng.Uint32N(d.total)
	var acc uint32
	for i, c := range d.counts {
		acc += c
		if target < acc {
			return d.bins[i]
		}
	}
	return d.bins[len(d.bins)-1]
}

type mapModel struct {
	histLens []int
	tables   []map[string]*dist
	marginal dist
}

func trainMap(trace []float64) *mapModel {
	m := &mapModel{histLens: defaultHistLens}
	m.tables = make([]map[string]*dist, len(m.histLens))
	for i := range m.tables {
		m.tables[i] = make(map[string]*dist)
	}
	q := make([]uint8, len(trace))
	for i, v := range trace {
		q[i] = quantize(v)
	}
	for i, bin := range q {
		m.marginal.add(bin)
		for li, hl := range m.histLens {
			if i < hl {
				continue
			}
			key := string(q[i-hl : i])
			d := m.tables[li][key]
			if d == nil {
				d = &dist{}
				m.tables[li][key] = d
			}
			d.add(bin)
		}
	}
	return m
}

type mapSource struct {
	model *mapModel
	rng   *rand.Rand
	hist  []uint8
	last  float64
}

func (m *mapModel) newSource(rng *rand.Rand) *mapSource {
	s := &mapSource{model: m, rng: rng}
	s.reseed()
	return s
}

func (s *mapSource) reseed() {
	maxHist := s.model.histLens[0]
	s.hist = s.hist[:0]
	for i := 0; i < maxHist; i++ {
		s.hist = append(s.hist, s.model.marginal.sample(s.rng))
	}
	s.last = dequantize(s.hist[len(s.hist)-1], s.rng)
}

func (s *mapSource) next() float64 {
	var bin uint8
	matched := false
	for li, hl := range s.model.histLens {
		if hl > len(s.hist) {
			continue
		}
		key := string(s.hist[len(s.hist)-hl:])
		if d, ok := s.model.tables[li][key]; ok {
			bin = d.sample(s.rng)
			matched = true
			break
		}
	}
	if !matched {
		bin = s.model.marginal.sample(s.rng)
	}
	copy(s.hist, s.hist[1:])
	s.hist[len(s.hist)-1] = bin
	s.last = dequantize(bin, s.rng)
	return s.last
}

// packKey packs a string-keyed reference pattern the way the flat model
// keys it: oldest bin in the highest byte.
func packKey(key string) uint64 {
	var packed uint64
	for i := 0; i < len(key); i++ {
		packed = packed<<histShift | uint64(key[i])
	}
	return packed
}

// requireSameDist fails unless the flat model's slot holds exactly the
// reference distribution: the same bins in the same order with the same
// running counts (sampling walks the bins in insertion order, so order is
// part of the RNG contract, not just the totals).
func requireSameDist(t *testing.T, what string, m *Model, slot int32, rd *dist) {
	t.Helper()
	lo, hi := m.off[slot], m.off[slot+1]
	if int(hi-lo) != len(rd.bins) {
		t.Fatalf("%s: flat slot has bins %v, reference %v", what, m.bins[lo:hi], rd.bins)
	}
	var acc uint32
	for i := range rd.bins {
		acc += rd.counts[i]
		if m.bins[lo+int32(i)] != rd.bins[i] || m.cum[lo+int32(i)] != acc {
			t.Fatalf("%s: entry %d is bin %d cum %d, reference bin %d cum %d",
				what, i, m.bins[lo+int32(i)], m.cum[lo+int32(i)], rd.bins[i], acc)
		}
	}
}

// TestDenseModelMatchesMapModel pins the flat CSR model bit-for-bit
// against the map-based reference on a trained trace: same pattern sets,
// same distributions, same RNG consumption, identical sample streams.
func TestDenseModelMatchesMapModel(t *testing.T) {
	trace := GenerateTrace(120000, 11)
	dense := Train(trace)
	ref := trainMap(trace)

	if got, want := dense.Patterns(), len(ref.tables[0]); got != want {
		t.Fatalf("Patterns() = %d, map reference has %d", got, want)
	}
	slots := 0
	for li := range dense.histLens {
		if dense.tables[li].n != len(ref.tables[li]) {
			t.Fatalf("level %d: dense %d patterns, map %d",
				li, dense.tables[li].n, len(ref.tables[li]))
		}
		slots += len(ref.tables[li])
		for key, rd := range ref.tables[li] {
			slot := dense.tables[li].get(packKey(key))
			if slot < 0 {
				t.Fatalf("level %d: pattern %x missing from dense index", li, key)
			}
			requireSameDist(t, fmt.Sprintf("level %d pattern %x", li, key), dense, slot, rd)
		}
	}
	if int(dense.marginal) != slots || len(dense.off) != slots+2 {
		t.Fatalf("marginal slot %d, %d offsets; want slot %d after every pattern", dense.marginal, len(dense.off), slots)
	}
	requireSameDist(t, "marginal", dense, dense.marginal, &ref.marginal)

	// Identical sample streams from identically seeded RNGs on the plain
	// chain, reseeding both every few thousand steps.
	const seed = 77
	const streamSteps = 400000
	ds := dense.NewSource(sim.NewRNG(seed))
	ms := ref.newSource(sim.NewRNG(seed))
	for i := 0; i < streamSteps; i++ {
		if i%3000 == 2999 {
			ds.reseed()
			ms.reseed()
			if ds.last != ms.last {
				t.Fatalf("reseed at step %d: dense %v, map %v", i, ds.last, ms.last)
			}
		}
		if dv, mv := ds.next(), ms.next(); dv != mv {
			t.Fatalf("step %d: dense %v, map %v", i, dv, mv)
		}
	}

	// The lazy ReadAt path over as many chain steps: catch-up gaps of
	// every size up to past the reseed threshold, cycled, mirrored on the
	// reference chain. Each cycle ends in reseeds, roughly every 2.3k steps.
	ds = dense.NewSource(sim.NewRNG(seed + 1))
	ms = ref.newSource(sim.NewRNG(seed + 1))
	now := ds.step
	for steps := int64(0); steps < streamSteps; {
		for gap := int64(1); gap <= maxCatchUpSteps+3; gap++ {
			now += gap
			steps += gap
			dv := ds.ReadAt(time.Duration(now) * SamplePeriodMS * time.Millisecond)
			var mv float64
			if gap > maxCatchUpSteps {
				ms.reseed()
				mv = ms.last
			} else {
				for i := int64(0); i < gap; i++ {
					mv = ms.next()
				}
			}
			if dv != mv {
				t.Fatalf("read at step %d (gap %d): dense %v, map %v", now, gap, dv, mv)
			}
		}
	}
}

// TestSuccessorTableMatchesBackoff is the successor table's property:
// every entry that names a successor names exactly the slot a fresh
// back-off lookup resolves for the history it leads to, and only
// longest-history entries name one.
func TestSuccessorTableMatchesBackoff(t *testing.T) {
	m := Train(GenerateTrace(100000, 12))
	long := make([]bool, len(m.off)-1)
	checked := 0
	for _, b := range m.tables[0].entries {
		if b.slot < 0 {
			continue
		}
		long[b.slot] = true
		for e := m.off[b.slot]; e < m.off[b.slot+1]; e++ {
			if m.succ[e] == noSucc {
				continue
			}
			if want := m.resolve(b.key<<histShift | uint64(m.bins[e])); m.succ[e] != want {
				t.Fatalf("pattern %x bin %d: succ slot %d, back-off resolves %d", b.key, m.bins[e], m.succ[e], want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no successor entries to check")
	}
	sentinels := 0
	for slot := range long {
		for e := m.off[slot]; e < m.off[slot+1]; e++ {
			switch {
			case !long[slot] && m.succ[e] != noSucc:
				t.Fatalf("slot %d is not a longest-history pattern but entry %d has succ %d", slot, e, m.succ[e])
			case long[slot] && m.succ[e] == noSucc:
				sentinels++
			}
		}
	}
	// Only the entry sampled at the trace end can lack a successor.
	if sentinels > 1 {
		t.Fatalf("%d longest-history entries lack a successor, want at most the trace-end one", sentinels)
	}
}

// TestSourceCrossesTraceEndSentinel drives a source onto the trace-end
// entry, whose successor training never saw. On a strictly rising trace
// every pattern is unique and every distribution holds one bin, so the
// chain replays the trace deterministically up to its last sample; the
// step after it must fall back to the back-off lookup and still match the
// map reference draw for draw.
func TestSourceCrossesTraceEndSentinel(t *testing.T) {
	const n = 24
	trace := make([]float64, n)
	for i := range trace {
		trace[i] = quantMinDBm + float64(i)
	}
	m := Train(trace)
	ref := trainMap(trace)
	hl := m.histLens[0]

	const seed = 5
	ds := m.NewSource(sim.NewRNG(seed))
	ms := ref.newSource(sim.NewRNG(seed))
	// Start both chains on the trace's first window.
	ds.packed, ds.cur = 0, noSucc
	for i := 0; i < hl; i++ {
		ds.packed = ds.packed<<histShift | uint64(i)
		ms.hist[i] = uint8(i)
	}
	for i := hl; i < n; i++ {
		if i == n-1 {
			// The last step samples the trace-end entry.
			slot := m.resolve(ds.packed)
			if got := m.succ[m.off[slot]]; got != noSucc {
				t.Fatalf("trace-end entry has successor %d, want the sentinel", got)
			}
		}
		dv, mv := ds.next(), ms.next()
		if dv != mv || quantize(dv) != uint8(i) {
			t.Fatalf("replay step %d: dense %v, map %v, want bin %d", i, dv, mv, i)
		}
	}
	if ds.cur != noSucc {
		t.Fatalf("after the trace-end entry cur = %d, want the sentinel", ds.cur)
	}
	// Past the end: the window was never followed by a sample, so the
	// lookup backs off (to the marginal here) on both chains.
	for i := 0; i < 1000; i++ {
		if dv, mv := ds.next(), ms.next(); dv != mv {
			t.Fatalf("step %d past the trace end: dense %v, map %v", i, dv, mv)
		}
	}
}

// TestEmptyDistQuietFloor covers the empty-distribution fallback: it must
// return the properly quantized quiet-floor bin (rounded and clamped via
// quantize), not raw float-to-uint8 arithmetic, and consume no RNG.
func TestEmptyDistQuietFloor(t *testing.T) {
	// A model trained on an empty trace has an empty marginal slot.
	m := Train(nil)
	rng := sim.NewRNG(1)
	got, succ := m.sample(m.marginal, rng)
	want := quantize(quietFloorDBm)
	if got != want || succ != noSucc {
		t.Fatalf("empty slot sampled bin %d succ %d, want quantize(%v) = %d and the sentinel", got, succ, quietFloorDBm, want)
	}
	if rng.Uint64() != sim.NewRNG(1).Uint64() {
		t.Fatal("sampling an empty slot consumed the RNG")
	}
	if dbm := dequantize(got, rng); dbm < quietFloorDBm-1 || dbm > quietFloorDBm+1 {
		t.Fatalf("empty dist bin dequantizes to %v, want ~%v", dbm, quietFloorDBm)
	}
	// Every sample of the empty model must sit on the quiet floor and
	// never panic.
	src := m.NewSource(sim.NewRNG(2))
	for i := 0; i < 10; i++ {
		v := src.next()
		if v < quietFloorDBm-1 || v > quietFloorDBm+1 {
			t.Fatalf("empty-model sample %v, want quiet floor ±1", v)
		}
	}
}

// TestTrainAllocs pins training's allocation count: every store is sized
// to its bound up front, so the count is a small constant that does not
// grow with the trace. The collector is paused while counting: the
// process-wide malloc counter also sees the runtime's own allocations
// during the first GC cycles of a fresh test binary.
func TestTrainAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short, long := GenerateTrace(10000, 13), GenerateTrace(100000, 13)
	a := testing.AllocsPerRun(3, func() { Train(short) })
	b := testing.AllocsPerRun(3, func() { Train(long) })
	if a != b {
		t.Fatalf("Train allocates %v times on 10k samples but %v on 100k, want equal", a, b)
	}
	if a > 20 {
		t.Fatalf("Train allocates %v times, want a small constant (≤ 20)", a)
	}
}

// TestSourceNextAllocFree is the alloc contract for the per-sample hot
// path: the dense index does zero map lookups, zero string conversions,
// and zero allocations per chain step.
func TestSourceNextAllocFree(t *testing.T) {
	m := Train(GenerateTrace(50000, 3))
	src := m.NewSource(sim.NewRNG(4))
	if allocs := testing.AllocsPerRun(1000, func() { src.next() }); allocs != 0 {
		t.Fatalf("Source.next allocates %v per step, want 0", allocs)
	}
	var tick int64
	src2 := m.NewSource(sim.NewRNG(5))
	if allocs := testing.AllocsPerRun(1000, func() {
		tick++
		src2.ReadAt(time.Duration(tick) * SamplePeriodMS * time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Source.ReadAt allocates %v per step, want 0", allocs)
	}
}

// TestSourceReadAtBoundaries pins the lazy catch-up contract: monotone
// reads, catch-up of exactly maxCatchUpSteps steps, and a reseed at
// maxCatchUpSteps+1.
func TestSourceReadAtBoundaries(t *testing.T) {
	trace := GenerateTrace(50000, 6)
	stepAt := func(i int64) time.Duration {
		return time.Duration(i) * SamplePeriodMS * time.Millisecond
	}

	// Monotone-time contract: same or earlier times return the current
	// value without advancing the chain (no RNG consumption).
	m := Train(trace)
	src := m.NewSource(sim.NewRNG(7))
	v := src.ReadAt(stepAt(10))
	if src.ReadAt(stepAt(10)) != v || src.ReadAt(stepAt(3)) != v || src.ReadAt(0) != v {
		t.Fatal("non-advancing ReadAt changed the value")
	}

	// A gap of exactly maxCatchUpSteps steps walks the chain; the result
	// must equal stepping one at a time on a twin source.
	walk := m.NewSource(sim.NewRNG(8))
	jump := m.NewSource(sim.NewRNG(8))
	walk.ReadAt(stepAt(1))
	jump.ReadAt(stepAt(1))
	var want float64
	for i := int64(2); i <= 1+maxCatchUpSteps; i++ {
		want = walk.ReadAt(stepAt(i))
	}
	if got := jump.ReadAt(stepAt(1 + maxCatchUpSteps)); got != want {
		t.Fatalf("catch-up of exactly %d steps = %v, stepwise = %v", maxCatchUpSteps, got, want)
	}

	// One step beyond the cap must reseed instead: the twin that walks
	// diverges from the twin that jumps, and the jump consumes exactly a
	// reseed's worth of RNG (histLens[0] marginal draws + 1 dequantize).
	jump2 := m.NewSource(sim.NewRNG(9))
	jump2.ReadAt(stepAt(1))
	// twin shares jump2's RNG state: after the same construction and
	// first read, refRNG sits exactly where jump2's stream does.
	refRNG := sim.NewRNG(9)
	twin := m.NewSource(refRNG)
	twin.ReadAt(stepAt(1))
	got := jump2.ReadAt(stepAt(2 + maxCatchUpSteps))
	// The jump crossed maxCatchUpSteps+1 steps: it must have reseeded,
	// consuming exactly histLens[0] marginal draws plus one dequantize.
	var bin uint8
	for i := 0; i < defaultHistLens[0]; i++ {
		bin, _ = m.sample(m.marginal, refRNG)
	}
	reseedWant := dequantize(bin, refRNG)
	if got != reseedWant {
		t.Fatalf("catch-up of %d steps = %v, want reseed result %v", maxCatchUpSteps+1, got, reseedWant)
	}
}
