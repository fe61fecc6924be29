package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent must not track each other.
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			t.Fatalf("parent and child emitted equal value at step %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split()
	c2 := New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split streams from equal parents diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square sanity test over 8 buckets.
	r := New(99)
	const buckets = 8
	const draws = 80000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; 99.9% critical value ~ 24.3.
	if chi2 > 24.3 {
		t.Fatalf("chi-square %f too high; counts %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

func TestProbExtremes(t *testing.T) {
	r := New(11)
	for i := 0; i < 100; i++ {
		if r.Prob(0) {
			t.Fatal("Prob(0) returned true")
		}
		if !r.Prob(1) {
			t.Fatal("Prob(1) returned false")
		}
		if r.Prob(-0.5) {
			t.Fatal("Prob(-0.5) returned true")
		}
		if !r.Prob(1.5) {
			t.Fatal("Prob(1.5) returned false")
		}
	}
}

func TestProbFrequency(t *testing.T) {
	r := New(13)
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Prob(0.25) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.25) > 0.01 {
		t.Fatalf("Prob(0.25) frequency %f", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermPropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := New(seed).Perm(n)
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(23)
	xs := make([]int, 30)
	for i := range xs {
		xs[i] = i * 10
	}
	for k := 0; k <= len(xs); k++ {
		got := Sample(r, xs, k)
		if len(got) != k {
			t.Fatalf("Sample k=%d returned %d items", k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("Sample k=%d returned duplicate %d", k, v)
			}
			if v%10 != 0 || v < 0 || v >= 300 {
				t.Fatalf("Sample returned foreign element %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample with k > len did not panic")
		}
	}()
	Sample(New(1), []int{1, 2}, 3)
}

func TestSampleDoesNotMutateInput(t *testing.T) {
	r := New(29)
	xs := []int{1, 2, 3, 4, 5}
	orig := []int{1, 2, 3, 4, 5}
	Sample(r, xs, 3)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("Sample mutated input: %v", xs)
		}
	}
}

func TestShuffleSmall(t *testing.T) {
	r := New(37)
	// Shuffling 0 or 1 elements must be a no-op and not panic.
	r.Shuffle(0, func(i, j int) { t.Fatal("swap called for n=0") })
	r.Shuffle(1, func(i, j int) { t.Fatal("swap called for n=1") })
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}
