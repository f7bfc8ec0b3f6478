package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// digest hashes a run's simulated outcome. Values are printed with %v,
// which is exact for integers, durations and float64 (shortest
// round-trip form), so two digests match only if every recorded outcome
// matches bit for bit.
type digest struct {
	h hash.Hash
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(tag string, vals ...any) {
	fmt.Fprintln(d.h, append([]any{tag}, vals...)...)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// opPercentile returns the p-th percentile (nearest rank, 0 < p ≤ 1) of
// the ops' latencies, counting a failed op as slower than any success:
// a rank that falls among the failed ops reports the horizon.
func opPercentile(ops []op, p float64, horizon time.Duration) float64 {
	var lat []float64
	for _, o := range ops {
		if o.ok {
			lat = append(lat, o.latency.Seconds())
		}
	}
	if len(ops) == 0 {
		return horizon.Seconds()
	}
	sort.Float64s(lat)
	rank := max(int(math.Ceil(p*float64(len(ops)))), 1)
	if rank > len(lat) {
		return horizon.Seconds()
	}
	return lat[rank-1]
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cost is host time spent, on the wall clock and on the process's CPU
// clock (user and system time of every thread, the garbage collector's
// included). The CPU clock leaves out time the host gives another guest
// (steal), which the wall clock counts.
type cost struct{ wall, cpu time.Duration }

func (c cost) add(d cost) cost { return cost{c.wall + d.wall, c.cpu + d.cpu} }
func (c cost) sub(d cost) cost { return cost{c.wall - d.wall, c.cpu - d.cpu} }

// stamp is a reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

func (s stamp) to(e stamp) cost { return cost{e.wall.Sub(s.wall), e.cpu - s.cpu} }

func (s stamp) since() cost { return s.to(now()) }

// processCPU reads CLOCK_PROCESS_CPUTIME_ID.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// repCost is one replication's host cost: all of it, its set-up and its
// simulation phases; and the host probe run just before it.
type repCost struct{ total, setup, sim, probe cost }

func totalPart(rc repCost) cost { return rc.total }
func setupPart(rc repCost) cost { return rc.setup }
func simPart(rc repCost) cost   { return rc.sim }

// bestSum takes, for each replication, the cheapest of its passes — wall
// and CPU clocks apart — and sums them. passes[p][r] is replication r in
// pass p. A replication slowed by a burst of load elsewhere on the host
// loses to a pass that was not, so the sum reads the program's own cost.
func bestSum(passes [][]cost) cost {
	var total cost
	for r := range passes[0] {
		best := passes[0][r]
		for _, p := range passes[1:] {
			best.wall = min(best.wall, p[r].wall)
			best.cpu = min(best.cpu, p[r].cpu)
		}
		total = total.add(best)
	}
	return total
}

// column picks one part of every unit's replication costs, as bestSum's
// passes.
func column(units []*unit, part func(repCost) cost) [][]cost {
	passes := make([][]cost, len(units))
	for i, u := range units {
		for _, rc := range u.reps {
			passes[i] = append(passes[i], part(rc))
		}
	}
	return passes
}
