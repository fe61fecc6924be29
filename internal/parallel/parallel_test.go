package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAll(t *testing.T) {
	const n = 100
	var hits [n]int32
	ForEach(n, 4, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d invoked %d times", i, h)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, 4, func(i int) { called = true })
	ForEach(-5, 4, func(i int) { called = true })
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

func TestForEachSingleWorkerSequential(t *testing.T) {
	var order []int
	ForEach(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker out of order: %v", order)
		}
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	ForEach(50, 0, func(i int) { atomic.AddInt64(&count, 1) })
	if count != 50 {
		t.Fatalf("count %d", count)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	got := Map(20, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestStddev(t *testing.T) {
	if Stddev(nil) != 0 || Stddev([]float64{5}) != 0 {
		t.Fatal("degenerate stddev not 0")
	}
	// Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is ~2.138.
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got < 2.13 || got > 2.15 {
		t.Fatalf("Stddev = %f", got)
	}
	if Stddev([]float64{3, 3, 3}) != 0 {
		t.Fatal("constant samples stddev not 0")
	}
}

func BenchmarkForEach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, 0, func(j int) {
			s := 0
			for x := 0; x < 1000; x++ {
				s += x
			}
			_ = s
		})
	}
}

func TestForEachBoundsCoversAllInOrder(t *testing.T) {
	const n = 103 // intentionally not divisible by worker counts
	// Empty shards at the front, in the middle and at the end must still
	// run, each exactly once with its own bounds.
	for _, bounds := range [][]int{
		{0, n},
		{0, 51, n},
		{0, 0, 40, 40, 90, n, n},
		{0, 10, 20, 30, 40, 50, 60, n},
	} {
		calls := make([]int32, len(bounds)-1)
		got := make([][2]int, len(bounds)-1)
		ForEachBounds(bounds, func(s, lo, hi int) {
			atomic.AddInt32(&calls[s], 1)
			got[s] = [2]int{lo, hi}
		})
		for s, c := range calls {
			if c != 1 {
				t.Fatalf("bounds %v: shard %d ran %d times", bounds, s, c)
			}
			if want := [2]int{bounds[s], bounds[s+1]}; got[s] != want {
				t.Fatalf("bounds %v: shard %d got [%d, %d), want [%d, %d)",
					bounds, s, got[s][0], got[s][1], want[0], want[1])
			}
		}
	}
	called := false
	ForEachBounds([]int{0}, func(s, lo, hi int) { called = true })
	ForEachBounds(nil, func(s, lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for a partition with no shards")
	}
}
