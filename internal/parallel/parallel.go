// Package parallel provides the two levels of parallelism in this
// repository. ForEach and Map are the bounded worker pool for Monte-Carlo
// experiment sweeps: many independent, seed-deterministic simulation runs
// fanned out across the machine's cores, with results kept in slot order
// regardless of scheduling. ForEachBounds is the within-run fan-out: the
// engine runs each round stage on one goroutine per contiguous node shard
// when a run has more than one shard (see sim.Options.Workers) and merges
// the shards in shard order, so a parallel run stays bit-identical to a
// serial one.
package parallel

import (
	"math"
	"runtime"
	"sync"
)

// ForEach invokes fn(i) for every i in [0, n), using up to `workers`
// goroutines (0 means GOMAXPROCS). It blocks until all invocations finish.
// fn must be safe for concurrent invocation with distinct i.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ForEachBounds invokes fn(shard, lo, hi) once per block of an explicit
// partition: bounds holds len(bounds)-1 contiguous blocks, shard s covering
// [bounds[s], bounds[s+1]). Blocks run concurrently, one goroutine each;
// a single block runs on the calling goroutine. fn is invoked for empty
// shards too — callers keep per-shard accumulators and a skipped shard
// would leave stale state unmerged. Bounds must be non-decreasing and
// start/end at the range edges; the engine uses this to cut shards at
// equal cumulative degree instead of equal node count, so hub-heavy blocks
// no longer serialise on one worker while bit-identity (ascending-block
// merge order) is preserved.
func ForEachBounds(bounds []int, fn func(shard, lo, hi int)) {
	w := len(bounds) - 1
	if w <= 0 {
		return
	}
	if w == 1 {
		fn(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for s := 0; s < w; s++ {
		go func(s int) {
			defer wg.Done()
			fn(s, bounds[s], bounds[s+1])
		}(s)
	}
	wg.Wait()
}

// Map runs fn over [0, n) with bounded parallelism and returns the results
// in index order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
