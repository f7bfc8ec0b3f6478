package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Replicator runs independent replications of a study — one fully
// separate (sim.Engine, Net) pair per seed — on a bounded worker pool.
// Each replication is single-threaded and deterministic, so parallelism
// across replications is safe: no engine, medium, or RNG stream is shared
// between seeds. Results are merged in seed order, making the aggregate
// byte-identical no matter how the scheduler interleaves workers (and
// identical to the serial Workers=1 run).
type Replicator struct {
	// Workers bounds the worker pool; <=0 means runtime.GOMAXPROCS(0).
	Workers int
}

// workers resolves the effective pool size.
func (r Replicator) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeeds expands a base seed into n decorrelated replication seeds
// using the engine's SplitMix64 stream derivation.
func DeriveSeeds(base uint64, n int) []uint64 {
	rng := sim.DeriveRNG(base, 0x5eed5)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// each runs fn once per seed index on the bounded pool and returns the
// first error (lowest seed index wins, so failures are deterministic too).
func (r Replicator) each(n int, fn func(i int) error) error {
	w := r.workers()
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replicate runs a study once per seed on r's worker pool — run must
// build everything it touches from its seed alone — and merges the
// per-seed results in seed order. The merge may reuse the first result.
func Replicate[R any](r Replicator, seeds []uint64, run func(seed uint64) (R, error), merge func([]R) R) (R, error) {
	var zero R
	if len(seeds) == 0 {
		return zero, fmt.Errorf("experiment: no seeds given")
	}
	results := make([]R, len(seeds))
	err := r.each(len(seeds), func(i int) error {
		res, err := run(seeds[i])
		results[i] = res
		return err
	})
	if err != nil {
		return zero, err
	}
	return merge(results), nil
}

// mergeEvents concatenates the per-seed telemetry streams of results in
// seed order, tagging each event with its replication index, so a
// parallel replication's merged stream is byte-identical to the serial one.
func mergeEvents[R any](results []R, events func(R) []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for ri, res := range results {
		for _, ev := range events(res) {
			ev.Run = ri
			out = append(out, ev)
		}
	}
	return out
}
