package noise

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Quantization for CPM: 1 dB bins over [-105, -40] dBm.
const (
	quantMinDBm = -105.0
	quantBins   = 66
)

// Default CPM history lengths, longest first. The model backs off to
// shorter histories (and finally the marginal) when a pattern was not seen
// during training, which is the "closest pattern matching" behaviour.
var defaultHistLens = []int{8, 4, 2, 1}

// histShift is the bit width one quantized bin occupies in a packed
// history key. quantBins < 256, so a byte per bin keeps packing injective
// (a packed key equals the old string key byte for byte), and the longest
// supported history is maxPackedHist bins per uint64 key.
const (
	histShift     = 8
	maxPackedHist = 64 / histShift
)

// maxCatchUpSteps bounds how many 1 ms steps a lazy Source will simulate to
// catch up with virtual time; beyond that the chain is resampled from the
// marginal distribution (the chain mixes fast, so this is statistically
// indistinguishable and keeps long idle gaps O(1)).
const maxCatchUpSteps = 64

// noSucc is the successor-table sentinel: the next history's slot is not
// known in advance and must be resolved by the back-off lookup.
const noSucc int32 = -1

// patEntry is one bucket of a patTable: a packed history key and its
// distribution slot in the Model (-1 marks an empty bucket). Key and slot
// share a bucket so a probe touches one cache line, not two.
type patEntry struct {
	key  uint64
	slot int32
}

// patTable is an open-addressed hash index from a packed history key to a
// distribution slot: one multiply-shift hash plus a linear probe over a
// flat bucket array, no per-lookup allocation. Train sizes it once to at
// least twice the number of distinct keys its history length can produce,
// so it never grows and probes stay short. The bucket count is a power of
// two, so probing wraps with a mask.
type patTable struct {
	entries []patEntry
	mask    uint64
	n       int
}

// newPatTable returns a table with room for maxKeys keys at no more than
// half load.
func newPatTable(maxKeys int) patTable {
	if maxKeys == 0 {
		return patTable{}
	}
	size := uint64(2)
	for size < 2*uint64(maxKeys) {
		size <<= 1
	}
	entries := make([]patEntry, size)
	for i := range entries {
		entries[i].slot = -1
	}
	return patTable{entries: entries, mask: size - 1}
}

// hashKey mixes a packed history key (splitmix64 finalizer) so linear
// probing sees a uniform distribution even for near-identical histories.
func hashKey(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key
}

// get returns the distribution slot for key, or -1 when the pattern was
// never seen in training.
func (t *patTable) get(key uint64) int32 {
	if t.n == 0 {
		return -1
	}
	i := hashKey(key) & t.mask
	for {
		e := t.entries[i]
		if e.slot < 0 || e.key == key {
			return e.slot
		}
		i = (i + 1) & t.mask
	}
}

// put inserts key→slot. Training-time only; the table was sized for every
// key it can receive.
func (t *patTable) put(key uint64, slot int32) {
	i := hashKey(key) & t.mask
	for t.entries[i].slot >= 0 {
		i = (i + 1) & t.mask
	}
	t.entries[i] = patEntry{key: key, slot: slot}
	t.n++
}

// Model is a trained CPM noise model. It is immutable after Train and safe
// to share across all node Sources.
//
// Every categorical distribution — one per (history length, pattern) and
// the marginal — is a slot in one CSR layout: slot s owns the entries
// off[s]..off[s+1]-1, and entry e holds a quantized bin and cum[e], the
// running count of its slot up to and including e. A slot's entries keep
// the order in which training first saw their bins. Sampling draws
// rng.Uint32N(total) and walks that order, so it consumes the RNG exactly
// as the map-keyed reference model in the tests does and emits the same
// samples; that order is part of every pinned trace.
//
// succ[e] is the successor table. For an entry of a longest-history slot,
// it is the slot the back-off lookup resolves once e's bin is appended to
// the history. Training knows it: the window at trace position i+1 is the
// successor of the entry (window_i, q[i]), q[i] being the quantized sample
// at i, and that window is itself a longest-history pattern. A Source that samples such an entry moves to
// succ[e] without hashing. noSucc marks the rest: entries of shorter
// histories and of the marginal, and the trace-end entry whose next window
// training never saw followed by a sample.
type Model struct {
	histLens []int
	// histMask[i] selects the low histLens[i] bins of a packed rolling
	// history; tables[i] indexes the patterns of that length.
	histMask []uint64
	tables   []patTable

	off  []int32
	bins []uint8
	cum  []uint32
	succ []int32
	// marginal is the slot of the marginal distribution (the last one).
	marginal int32
}

// histMaskFor returns the packed-key mask covering hl bins.
func histMaskFor(hl int) uint64 {
	if hl >= maxPackedHist {
		return ^uint64(0)
	}
	return (uint64(1) << (histShift * hl)) - 1
}

// distinctBound caps a count of windows at the number of distinct
// sequences of width bins.
func distinctBound(windows, width int) int {
	keys := 1
	for i := 0; i < width && keys < windows; i++ {
		keys *= quantBins
	}
	return min(windows, keys)
}

// Train builds a CPM model from a noise trace (dBm samples at 1 kHz).
//
// It is one pass over the trace. Every store is sized to its bound before
// the pass, so the allocation count does not depend on the trace length:
// each slot's distinct bins form a chain through flat entry arrays, and
// the chains are compacted into the CSR layout at the end.
func Train(trace []float64) *Model {
	histLens := defaultHistLens
	if histLens[0] > maxPackedHist {
		panic(fmt.Sprintf("noise: history length %d exceeds packed key capacity %d",
			histLens[0], maxPackedHist))
	}
	m := &Model{
		histLens: histLens,
		histMask: make([]uint64, len(histLens)),
		tables:   make([]patTable, len(histLens)),
	}
	maxSlots, maxEntries := 0, 0
	for li, hl := range histLens {
		m.histMask[li] = histMaskFor(hl)
		// Every trace position i >= hl offers one window, and with its
		// sample one (pattern, bin) pair.
		windows := max(len(trace)-hl, 0)
		keys := distinctBound(windows, hl)
		m.tables[li] = newPatTable(keys)
		maxSlots += keys
		maxEntries += distinctBound(windows, hl+1)
	}

	// Training chains: head[s] is slot s's first entry, next[e] the entry
	// after e in first-seen order (-1 ends a chain).
	head := make([]int32, maxSlots)
	next := make([]int32, maxEntries)
	bins := make([]uint8, maxEntries)
	counts := make([]uint32, maxEntries)
	succ := make([]int32, maxEntries)
	var nSlots, nEntries int32

	var margCount [quantBins]uint32
	var margOrder [quantBins]uint8
	nMarg := 0

	// packed carries the most recent bins of the trace, newest in the low
	// byte, so packed&histMask[li] is the length-hl window before sample i.
	var packed uint64
	// prevLong is the longest-history entry counted at the previous
	// position; this position's longest-history slot is its successor.
	prevLong := noSucc
	for i, v := range trace {
		bin := quantize(v)
		if margCount[bin] == 0 {
			margOrder[nMarg] = bin
			nMarg++
		}
		margCount[bin]++
		for li, hl := range histLens {
			if i < hl {
				continue
			}
			t := &m.tables[li]
			key := packed & m.histMask[li]
			slot := t.get(key)
			if slot < 0 {
				slot = nSlots
				nSlots++
				t.put(key, slot)
				head[slot] = -1
			}
			e, tail := head[slot], int32(-1)
			for e >= 0 && bins[e] != bin {
				tail, e = e, next[e]
			}
			if e < 0 {
				e = nEntries
				nEntries++
				bins[e], counts[e], next[e], succ[e] = bin, 0, -1, noSucc
				if tail < 0 {
					head[slot] = e
				} else {
					next[tail] = e
				}
			}
			counts[e]++
			if li == 0 {
				if prevLong >= 0 {
					succ[prevLong] = slot
				}
				prevLong = e
			}
		}
		packed = packed<<histShift | uint64(bin)
	}

	n := int(nEntries) + nMarg
	m.off = make([]int32, nSlots+2)
	m.bins = make([]uint8, n)
	m.cum = make([]uint32, n)
	m.succ = make([]int32, n)
	k := int32(0)
	for s := int32(0); s < nSlots; s++ {
		m.off[s] = k
		var acc uint32
		for e := head[s]; e >= 0; e = next[e] {
			acc += counts[e]
			m.bins[k], m.cum[k], m.succ[k] = bins[e], acc, succ[e]
			k++
		}
	}
	m.marginal = nSlots
	m.off[nSlots] = k
	var acc uint32
	for _, bin := range margOrder[:nMarg] {
		acc += margCount[bin]
		m.bins[k], m.cum[k], m.succ[k] = bin, acc, noSucc
		k++
	}
	m.off[nSlots+1] = k
	return m
}

// Patterns returns the number of distinct patterns at the longest history
// length. Exposed for tests and diagnostics.
func (m *Model) Patterns() int {
	if len(m.tables) == 0 {
		return 0
	}
	return m.tables[0].n
}

// resolve is the closest-pattern lookup: the slot of the longest history
// of packed seen in training, else the marginal.
func (m *Model) resolve(packed uint64) int32 {
	for li := range m.tables {
		if slot := m.tables[li].get(packed & m.histMask[li]); slot >= 0 {
			return slot
		}
	}
	return m.marginal
}

// sample draws a bin from slot's distribution and returns it with its
// successor slot. An empty slot (only the marginal of an empty trace)
// yields the quiet-floor bin without consuming the RNG.
func (m *Model) sample(slot int32, rng *rand.Rand) (uint8, int32) {
	lo, hi := m.off[slot], m.off[slot+1]
	if lo == hi {
		return quantize(quietFloorDBm), noSucc
	}
	target := rng.Uint32N(m.cum[hi-1])
	e := lo
	for m.cum[e] <= target {
		e++
	}
	return m.bins[e], m.succ[e]
}

func quantize(dbm float64) uint8 {
	bin := int(dbm - quantMinDBm + 0.5)
	if bin < 0 {
		bin = 0
	}
	if bin >= quantBins {
		bin = quantBins - 1
	}
	return uint8(bin)
}

func dequantize(bin uint8, rng *rand.Rand) float64 {
	return quantMinDBm + float64(bin) + (rng.Float64() - 0.5)
}

// Source is a per-node noise stream driven by a shared Model. It is lazy:
// ReadAt advances the underlying 1 kHz chain only as far as needed.
//
// Each chain step draws one rng.Uint32N for the bin and one rng.Float64
// to dequantize it, in that order; the successor table changes how the
// next distribution is found, never which one it is.
type Source struct {
	model *Model
	rng   *rand.Rand
	// packed is the rolling quantized history, newest bin in the low
	// byte — the representation the model's pattern tables key on.
	packed uint64
	// cur is the resolved slot of packed, or noSucc when the next step
	// must look it up (after a reseed or a step without a successor).
	cur  int32
	last float64
	step int64 // chain position, in SamplePeriodMS units
}

// NewSource creates an independent noise stream. Different sources should
// use different rng streams (see sim.DeriveRNG).
func (m *Model) NewSource(rng *rand.Rand) *Source {
	s := &Source{model: m, rng: rng, step: -1}
	s.reseed()
	return s
}

// reseed fills the history from the marginal distribution.
func (s *Source) reseed() {
	m := s.model
	var bin uint8
	for i := 0; i < m.histLens[0]; i++ {
		bin, _ = m.sample(m.marginal, s.rng)
		s.packed = s.packed<<histShift | uint64(bin)
	}
	s.cur = noSucc
	s.last = dequantize(bin, s.rng)
}

// advance moves the chain one step by closest-pattern matching and
// returns the new bin. The caller still owes the step's dequantize draw.
func (s *Source) advance() uint8 {
	slot := s.cur
	if slot < 0 {
		slot = s.model.resolve(s.packed)
	}
	bin, succ := s.model.sample(slot, s.rng)
	// Slide history: the shift drops the oldest bin off the top.
	s.packed = s.packed<<histShift | uint64(bin)
	s.cur = succ
	return bin
}

// next advances the chain one step and returns its noise value.
func (s *Source) next() float64 {
	s.last = dequantize(s.advance(), s.rng)
	return s.last
}

// ReadAt returns the noise floor (dBm) at virtual time t. Calls must be
// monotone in t per Source; earlier times return the current value.
func (s *Source) ReadAt(t time.Duration) float64 {
	target := int64(t / (SamplePeriodMS * time.Millisecond))
	if target <= s.step {
		return s.last
	}
	steps := target - s.step
	s.step = target
	if steps > maxCatchUpSteps {
		s.reseed()
		return s.last
	}
	// Catch-up steps nobody reads still draw their dequantize Float64, so
	// the RNG stream matches stepping one at a time.
	for ; steps > 1; steps-- {
		s.advance()
		s.rng.Float64()
	}
	return s.next()
}
