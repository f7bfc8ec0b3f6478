package main

import (
	"container/heap"
	"math/rand/v2"
	"sort"
	"time"
)

// The host probe is a fixed slice of work that shares none of the
// simulator's code but does the same kinds of thing: a discrete-event
// loop over a binary heap of pointers to timed events, each new event
// taken from a random slot of a pool as large as the simulator's heap,
// and an exponential draw per event. It runs before replications of an
// untraced unit. Its cost moves with the host's speed — other guests on
// the shared cores, caches and memory, clock changes — and not with the
// program under test, so scaling a unit's cost by it cancels the host's
// drift between runs (NOTES.md, "Host speed").

const (
	probeQueue  = 4096
	probeEvents = 30_000
	// probePool events of 32 bytes: 32 MB, about the simulator's
	// resident set on line-service, so the probe misses the caches as
	// the simulator does.
	probePool = 1 << 20
	// minProbes is how many probes a run takes at least.
	minProbes = 16
	// probeNominal is the probe's lower-quartile cost on the reference
	// host, a 2-vCPU Intel Xeon VM (NOTES.md): the host-scaled metrics
	// are seconds on a host where the probe costs exactly this much.
	probeNominal = 10 * time.Millisecond
)

type probeEvent struct {
	at   float64
	id   uint64
	hops [4]uint32
}

type probeHeap []*probeEvent

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeEvent)) }
func (h *probeHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// probeState is the probe's working memory, made on first use and reused
// so that a probe allocates nothing and leaves the garbage collector out
// of its cost.
var probeState struct {
	pool []probeEvent
	heap probeHeap
	pcg  rand.PCG
	rng  *rand.Rand
}

// hostProbe runs the probe once and returns a checksum of its events,
// the same on every call.
func hostProbe() uint64 {
	s := &probeState
	if s.pool == nil {
		s.pool = make([]probeEvent, probePool)
		s.heap = make(probeHeap, 0, probeQueue)
		s.rng = rand.New(&s.pcg)
	}
	s.pcg.Seed(1, 2)
	rng := s.rng
	h := &s.heap
	*h = (*h)[:0]
	for i := range probeQueue {
		e := &s.pool[rng.IntN(probePool)]
		e.at, e.id, e.hops = rng.ExpFloat64(), uint64(i), [4]uint32{}
		*h = append(*h, e)
	}
	heap.Init(h)
	var sum uint64
	for range probeEvents {
		e := (*h)[0]
		sum = sum*31 + e.id + uint64(e.hops[e.id%4])
		next := &s.pool[rng.IntN(probePool)]
		next.at, next.id, next.hops = e.at+rng.ExpFloat64(), e.id+1, [4]uint32{}
		next.hops[next.id%4] = uint32(e.id)
		(*h)[0] = next
		heap.Fix(h, 0)
	}
	return sum
}

// probing turns on the probe before each replication. Only the units of
// an untraced run after its first one are probed: a traced run's costs
// are not scaled, and the first unit's peak memory is read before the
// probe's pool exists.
var probing bool

// probe times one host probe when on.
func probe(on bool) cost {
	if !on {
		return cost{}
	}
	t0 := now()
	hostProbe()
	return t0.since()
}

// hostScale is the factor that turns host time measured in a run into
// host time on the reference host: the probe's nominal cost over the
// lower quartile of the run's probe wall times. The unit costs it scales
// are each replication's cheapest pass (bestSum), so both sides read the
// host at its quicker moments.
func hostScale(probes []time.Duration) (scale float64, probeWall time.Duration) {
	s := append([]time.Duration(nil), probes...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	probeWall = s[len(s)/4]
	return probeNominal.Seconds() / probeWall.Seconds(), probeWall
}

// topUp adds standalone probes until there are minProbes.
func topUp(probes []time.Duration) []time.Duration {
	for len(probes) < minProbes {
		probes = append(probes, probe(true).wall)
	}
	return probes
}

// probeWalls collects the wall times of the probes the units ran.
func probeWalls(units []*unit) []time.Duration {
	var walls []time.Duration
	for _, u := range units {
		for _, rc := range u.reps {
			if rc.probe.wall > 0 {
				walls = append(walls, rc.probe.wall)
			}
		}
	}
	return walls
}
