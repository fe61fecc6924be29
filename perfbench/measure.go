package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's CPU time, user plus system, over all
// threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocStats returns the cumulative heap bytes and objects allocated. It
// stops the world (it flushes every P's allocation cache, which makes the
// counts exact), so it is only called outside the timed phases.
func allocStats() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// gcStats returns the completed GC cycles and the runtime's estimate of CPU
// seconds spent in the GC, both cumulative.
func gcStats() (cycles uint64, cpuSeconds float64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

// liveAfterGC collects the heap and returns the bytes it marked live. It
// runs only where no timed metric includes it.
func liveAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stealTicks returns the host's cumulative steal time from /proc/stat, in
// clock ticks, or -1 where it cannot be read.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// clockTicks is USER_HZ, the unit of /proc/stat; it is 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// trimmedPool pools the round times (ms) of repetitions that run the same
// rounds on the same inputs, sorted. For every round it first drops the
// slowest third of the repetitions' times: a host interruption lands on
// different rounds in different repetitions and so leaves the pool, while a
// round that is slow in every repetition stays in the tail.
func trimmedPool(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs {
		n = min(n, len(r))
	}
	keep := len(runs) - len(runs)/3
	col := make([]float64, len(runs))
	out := make([]float64, 0, n*keep)
	for i := 0; i < n; i++ {
		for j, r := range runs {
			col[j] = r[i]
		}
		sort.Float64s(col)
		out = append(out, col[:keep]...)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := max(1, int(math.Ceil(p*float64(len(sorted)))))
	return sorted[rank-1], len(sorted) - rank
}

// histogram pools the round durations of runs on a pool, whose rounds do
// not line up across repetitions, in logarithmic buckets 0.1% wide. Its
// memory is fixed however many rounds run: table3-grid's replications keep
// only a few MB live, so retained raw samples would shift their GC pacing
// from one repetition to the next. Its percentiles lie within 0.1% of the
// exact sample percentiles.
type histogram struct {
	counts []uint32
	n      int
}

const (
	histMinNs   = 100.0 // shorter durations land in bucket 0
	histGrowth  = 1.001
	histBuckets = 20800 // the last bucket starts at about 107 s
)

var histLogGrowth = math.Log(histGrowth)

func newHistogram() *histogram { return &histogram{counts: make([]uint32, histBuckets)} }

func (h *histogram) add(d time.Duration) {
	i := 0
	if f := float64(d); f > histMinNs {
		i = min(int(math.Log(f/histMinNs)/histLogGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// percentile returns the p-quantile (0 < p < 1) in ms, the geometric
// middle of its bucket, and how many samples lie in higher buckets.
func (h *histogram) percentile(p float64) (ms float64, beyond int) {
	rank := max(1, int(math.Ceil(p*float64(h.n))))
	cum := 0
	for i, c := range h.counts {
		cum += int(c)
		if cum >= rank {
			return histMinNs * math.Pow(histGrowth, float64(i)+0.5) / 1e6, h.n - cum
		}
	}
	return math.NaN(), 0
}

// minTailSamples is how many samples must lie beyond a reported
// percentile.
const minTailSamples = 10
