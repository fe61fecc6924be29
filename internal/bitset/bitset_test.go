package bitset

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mkSet builds a Set from raw bytes, interpreting each byte mod 200 as an
// element. Used by the quick-check properties.
func mkSet(raw []byte) (*Set, map[int]bool) {
	s := &Set{}
	m := map[int]bool{}
	for _, b := range raw {
		e := int(b) % 200
		s.Add(e)
		m[e] = true
	}
	return s, m
}

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Min() != -1 || s.Max() != -1 {
		t.Fatal("zero value is not an empty set")
	}
	s.Add(100)
	if !s.Contains(100) || s.Len() != 1 {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(0)
	for _, e := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		if s.Contains(e) {
			t.Fatalf("fresh set contains %d", e)
		}
		s.Add(e)
		if !s.Contains(e) {
			t.Fatalf("set missing %d after Add", e)
		}
		s.Remove(e)
		if s.Contains(e) {
			t.Fatalf("set contains %d after Remove", e)
		}
	}
}

func TestRemoveOutOfRangeIsNoop(t *testing.T) {
	s := FromSlice([]int{1, 2})
	s.Remove(-1)
	s.Remove(100000)
	if s.Len() != 2 {
		t.Fatalf("out-of-range Remove changed set: %v", s)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	s := FromSlice([]int{0})
	if s.Contains(-1) {
		t.Fatal("Contains(-1) true")
	}
}

func TestLenAndElements(t *testing.T) {
	elems := []int{5, 70, 3, 3, 130, 64}
	s := FromSlice(elems)
	want := []int{3, 5, 64, 70, 130}
	got := s.Elements()
	if len(got) != len(want) || s.Len() != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMinMax(t *testing.T) {
	cases := []struct {
		elems    []int
		min, max int
	}{
		{nil, -1, -1},
		{[]int{0}, 0, 0},
		{[]int{63}, 63, 63},
		{[]int{64}, 64, 64},
		{[]int{7, 200, 64}, 7, 200},
	}
	for _, c := range cases {
		s := FromSlice(c.elems)
		if s.Min() != c.min || s.Max() != c.max {
			t.Fatalf("elems %v: min/max = %d/%d want %d/%d",
				c.elems, s.Min(), s.Max(), c.min, c.max)
		}
	}
}

func TestMinNotInMaxNotIn(t *testing.T) {
	s := FromSlice([]int{1, 5, 70, 130})
	o := FromSlice([]int{5, 130})
	if got := s.MinNotIn(o); got != 1 {
		t.Fatalf("MinNotIn = %d want 1", got)
	}
	if got := s.MaxNotIn(o); got != 70 {
		t.Fatalf("MaxNotIn = %d want 70", got)
	}
	if got := s.MinNotIn(s); got != -1 {
		t.Fatalf("MinNotIn(self) = %d want -1", got)
	}
	if got := s.MaxNotIn(nil); got != 130 {
		t.Fatalf("MaxNotIn(nil) = %d want 130", got)
	}
	// o larger than s in word count.
	big := FromSlice([]int{1000})
	if got := s.MinNotIn(big); got != 1 {
		t.Fatalf("MinNotIn(bigger) = %d want 1", got)
	}
}

func TestUnionDifferenceIntersection(t *testing.T) {
	a := FromSlice([]int{1, 2, 65})
	b := FromSlice([]int{2, 3, 200})

	u := Union(a, b)
	for _, e := range []int{1, 2, 3, 65, 200} {
		if !u.Contains(e) {
			t.Fatalf("union missing %d", e)
		}
	}
	if u.Len() != 5 {
		t.Fatalf("union len %d", u.Len())
	}

	d := Difference(a, b)
	if !d.Equal(FromSlice([]int{1, 65})) {
		t.Fatalf("difference = %v", d)
	}

	i := Intersection(a, b)
	if !i.Equal(FromSlice([]int{2})) {
		t.Fatalf("intersection = %v", i)
	}

	// In-place variants must not have modified operands.
	if !a.Equal(FromSlice([]int{1, 2, 65})) || !b.Equal(FromSlice([]int{2, 3, 200})) {
		t.Fatal("operands were modified")
	}
}

func TestDifferenceWithShorter(t *testing.T) {
	a := FromSlice([]int{1, 300})
	b := FromSlice([]int{1})
	a.DifferenceWith(b)
	if !a.Equal(FromSlice([]int{300})) {
		t.Fatalf("got %v", a)
	}
}

func TestIntersectWithShorterAndNil(t *testing.T) {
	a := FromSlice([]int{1, 300})
	a.IntersectWith(FromSlice([]int{300, 1, 5}))
	if !a.Equal(FromSlice([]int{1, 300})) {
		t.Fatalf("got %v", a)
	}
	a.IntersectWith(FromSlice([]int{1}))
	if !a.Equal(FromSlice([]int{1})) {
		t.Fatalf("got %v", a)
	}
	a.IntersectWith(nil)
	if !a.Empty() {
		t.Fatalf("intersect with nil not empty: %v", a)
	}
}

func TestEqualDifferentCapacities(t *testing.T) {
	a := New(1000)
	b := New(0)
	a.Add(3)
	b.Add(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal sets with different capacities compare unequal")
	}
	a.Add(999)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal sets compare equal")
	}
}

func TestEqualNil(t *testing.T) {
	empty := New(10)
	if !empty.Equal(nil) {
		t.Fatal("empty set != nil")
	}
	nonEmpty := FromSlice([]int{1})
	if nonEmpty.Equal(nil) {
		t.Fatal("non-empty set == nil")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Fatal("a not subset of b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b subset of a")
	}
	if !New(0).SubsetOf(a) {
		t.Fatal("empty not subset")
	}
	if !New(0).SubsetOf(nil) {
		t.Fatal("empty not subset of nil")
	}
	if a.SubsetOf(nil) {
		t.Fatal("non-empty subset of nil")
	}
	big := FromSlice([]int{500})
	if big.SubsetOf(a) {
		t.Fatal("big subset of a")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]int{1, 2})
	c := a.Clone()
	c.Add(3)
	a.Remove(1)
	if a.Contains(3) || !c.Contains(1) {
		t.Fatal("clone shares storage")
	}
}

func TestClearRetainsUsability(t *testing.T) {
	a := FromSlice([]int{1, 500})
	a.Clear()
	if !a.Empty() {
		t.Fatal("not empty after clear")
	}
	a.Add(7)
	if !a.Contains(7) || a.Len() != 1 {
		t.Fatal("set unusable after clear")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4})
	var got []int
	s.Range(func(i int) bool {
		got = append(got, i)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Range early stop got %v", got)
	}
}

func TestString(t *testing.T) {
	if s := FromSlice([]int{2, 1}).String(); s != "{1, 2}" {
		t.Fatalf("String() = %q", s)
	}
	if s := New(0).String(); s != "{}" {
		t.Fatalf("empty String() = %q", s)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := FromSlice([]int{0, 63, 64, 199})
	var b Set
	b.SetWords(a.Words())
	if !a.Equal(&b) {
		t.Fatal("Words/SetWords round trip failed")
	}
}

// --- property-based tests ---

func TestQuickUnionCommutative(t *testing.T) {
	f := func(x, y []byte) bool {
		a, _ := mkSet(x)
		b, _ := mkSet(y)
		return Union(a, b).Equal(Union(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionMatchesMapModel(t *testing.T) {
	f := func(x, y []byte) bool {
		a, am := mkSet(x)
		b, bm := mkSet(y)
		u := Union(a, b)
		model := map[int]bool{}
		for e := range am {
			model[e] = true
		}
		for e := range bm {
			model[e] = true
		}
		if u.Len() != len(model) {
			return false
		}
		for e := range model {
			if !u.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferenceMatchesMapModel(t *testing.T) {
	f := func(x, y []byte) bool {
		a, am := mkSet(x)
		b, bm := mkSet(y)
		d := Difference(a, b)
		want := []int{}
		for e := range am {
			if !bm[e] {
				want = append(want, e)
			}
		}
		sort.Ints(want)
		got := d.Elements()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// Within a universe U: U \ (A ∪ B) == (U \ A) ∩ (U \ B).
	f := func(x, y []byte) bool {
		u := &Set{}
		for i := 0; i < 200; i++ {
			u.Add(i)
		}
		a, _ := mkSet(x)
		b, _ := mkSet(y)
		lhs := Difference(u, Union(a, b))
		rhs := Intersection(Difference(u, a), Difference(u, b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinNotInMatchesScan(t *testing.T) {
	f := func(x, y []byte) bool {
		a, _ := mkSet(x)
		b, _ := mkSet(y)
		want := -1
		for _, e := range a.Elements() {
			if !b.Contains(e) {
				want = e
				break
			}
		}
		return a.MinNotIn(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxNotInMatchesScan(t *testing.T) {
	f := func(x, y []byte) bool {
		a, _ := mkSet(x)
		b, _ := mkSet(y)
		want := -1
		es := a.Elements()
		for i := len(es) - 1; i >= 0; i-- {
			if !b.Contains(es[i]) {
				want = es[i]
				break
			}
		}
		return a.MaxNotIn(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetUnion(t *testing.T) {
	f := func(x, y []byte) bool {
		a, _ := mkSet(x)
		b, _ := mkSet(y)
		u := Union(a, b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	a := New(1024)
	o := New(1024)
	for i := 0; i < 1024; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		o.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(o)
	}
}

func BenchmarkMinNotIn(b *testing.B) {
	a := New(1024)
	o := New(1024)
	for i := 0; i < 1024; i++ {
		a.Add(i)
	}
	for i := 0; i < 1000; i++ {
		o.Add(i)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = a.MinNotIn(o)
	}
	_ = sink
}

func TestCopyFrom(t *testing.T) {
	src := FromSlice([]int{2, 64, 300})
	var dst Set
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("copy differs: %v vs %v", &dst, src)
	}
	// Independence: mutating the copy leaves the source alone.
	dst.Add(7)
	if src.Contains(7) {
		t.Fatal("CopyFrom aliased the source storage")
	}
	// Shrinking reuse: copying a small set into a wide one must drop the
	// high elements, not merge them.
	dst.CopyFrom(FromSlice([]int{1}))
	if dst.Contains(300) || dst.Len() != 1 {
		t.Fatalf("shrinking copy kept stale elements: %v", &dst)
	}
	// Nil empties.
	dst.CopyFrom(nil)
	if !dst.Empty() {
		t.Fatalf("CopyFrom(nil) left %v", &dst)
	}
}

func TestGrowAfterShrinkZeroesStaleWords(t *testing.T) {
	// A set that shrank via CopyFrom keeps its old words as spare capacity;
	// growing back into that capacity must expose zeroes, not the old bits.
	s := FromSlice([]int{200, 250})
	s.CopyFrom(FromSlice([]int{1}))
	s.Add(130) // regrow into spare capacity, below the stale words
	if s.Contains(200) || s.Contains(250) {
		t.Fatalf("stale words resurfaced: %v", s)
	}
	if got := s.Elements(); len(got) != 2 || got[0] != 1 || got[1] != 130 {
		t.Fatalf("got %v want [1 130]", got)
	}
	// Same hazard via SetWords.
	s2 := FromSlice([]int{500})
	s2.SetWords([]uint64{1})
	s2.Add(400)
	if s2.Contains(500) {
		t.Fatalf("stale words resurfaced after SetWords: %v", s2)
	}
}

func TestMinMaxNotInUnion(t *testing.T) {
	s := FromSlice([]int{1, 5, 70, 130, 260})
	a := FromSlice([]int{5, 260})
	b := FromSlice([]int{1, 130})
	if got := s.MinNotInUnion(a, b); got != 70 {
		t.Fatalf("MinNotInUnion = %d want 70", got)
	}
	if got := s.MaxNotInUnion(a, b); got != 70 {
		t.Fatalf("MaxNotInUnion = %d want 70", got)
	}
	// Nil arguments behave as empty sets, in either position.
	if got := s.MinNotInUnion(nil, b); got != 5 {
		t.Fatalf("MinNotInUnion(nil, b) = %d want 5", got)
	}
	if got := s.MaxNotInUnion(a, nil); got != 130 {
		t.Fatalf("MaxNotInUnion(a, nil) = %d want 130", got)
	}
	if got := s.MinNotInUnion(nil, nil); got != 1 {
		t.Fatalf("MinNotInUnion(nil, nil) = %d want 1", got)
	}
	// Fully covered → -1.
	if got := s.MinNotInUnion(s, nil); got != -1 {
		t.Fatalf("MinNotInUnion(self) = %d want -1", got)
	}
	if got := s.MaxNotInUnion(a, s); got != -1 {
		t.Fatalf("MaxNotInUnion(_, self) = %d want -1", got)
	}
}

func TestQuickNotInUnionMatchesMaterialised(t *testing.T) {
	f := func(xs, as, bs []byte) bool {
		s, _ := mkSet(xs)
		a, _ := mkSet(as)
		b, _ := mkSet(bs)
		u := Union(a, b)
		return s.MinNotInUnion(a, b) == s.MinNotIn(u) &&
			s.MaxNotInUnion(a, b) == s.MaxNotIn(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnionChanged(t *testing.T) {
	s := FromSlice([]int{1, 63})
	o := FromSlice([]int{63, 64, 127, 128})
	if !s.UnionChanged(o) {
		t.Fatal("union that adds elements must report changed")
	}
	for _, e := range []int{1, 63, 64, 127, 128} {
		if !s.Contains(e) {
			t.Fatalf("missing %d after union", e)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d want 5", s.Len())
	}
	// Re-union of an absorbed set must report unchanged.
	if s.UnionChanged(o) {
		t.Fatal("idempotent re-union reported changed")
	}
	if s.UnionChanged(nil) {
		t.Fatal("nil union reported changed")
	}
	if s.UnionChanged(&Set{}) {
		t.Fatal("empty union reported changed")
	}
	// A subset of s must not report changed even when its word count differs.
	if s.UnionChanged(FromSlice([]int{1})) {
		t.Fatal("subset union reported changed")
	}
}

func TestUnionCount(t *testing.T) {
	s := FromSlice([]int{0, 64})
	if got := s.UnionCount(FromSlice([]int{0, 63, 64, 65, 128})); got != 3 {
		t.Fatalf("UnionCount = %d want 3", got)
	}
	if got := s.UnionCount(FromSlice([]int{63, 65, 128})); got != 0 {
		t.Fatalf("repeat UnionCount = %d want 0", got)
	}
	if got := s.UnionCount(nil); got != 0 {
		t.Fatalf("nil UnionCount = %d want 0", got)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d want 5", s.Len())
	}
}

// TestUnionChangedWordBoundaries exercises each side of every word seam the
// delta path crosses: last bit of a word, first bit of the next.
func TestUnionChangedWordBoundaries(t *testing.T) {
	for _, e := range []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192} {
		s := New(0)
		if !s.UnionChanged(FromSlice([]int{e})) {
			t.Fatalf("element %d: first union not reported", e)
		}
		if !s.Contains(e) || s.Len() != 1 {
			t.Fatalf("element %d: wrong content %v", e, s)
		}
		if s.UnionChanged(FromSlice([]int{e})) {
			t.Fatalf("element %d: re-union reported changed", e)
		}
		if got := s.UnionCount(FromSlice([]int{e, e + 1})); got != 1 {
			t.Fatalf("element %d: UnionCount = %d want 1", e, got)
		}
	}
}

// TestUnionChangedAfterShrink re-creates the PR 2 stale-word hazard: a set
// shrunk by CopyFrom/SetWords regrows over storage whose spare words held
// old bits. UnionChanged/UnionCount must observe zeroes there, not stale
// garbage (which would both corrupt the union and mis-report the delta).
func TestUnionChangedAfterShrink(t *testing.T) {
	s := FromSlice([]int{5, 100, 180}) // three words in use
	s.CopyFrom(FromSlice([]int{5}))    // shrink to one word; words 1,2 stale
	if changed := s.UnionChanged(FromSlice([]int{100})); !changed {
		t.Fatal("union into shrunk set not reported as change")
	}
	if !s.Contains(100) || s.Contains(180) || s.Len() != 2 {
		t.Fatalf("stale words leaked: %v", s)
	}

	s2 := FromSlice([]int{5, 100, 180})
	s2.SetWords([]uint64{1 << 5}) // shrink via the codec path
	if got := s2.UnionCount(FromSlice([]int{100, 180})); got != 2 {
		t.Fatalf("UnionCount after SetWords shrink = %d want 2", got)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len = %d want 3", s2.Len())
	}
}

func TestQuickUnionChangedAndCountMatchUnionWith(t *testing.T) {
	f := func(ra, rb []byte) bool {
		a1, _ := mkSet(ra)
		b, _ := mkSet(rb)
		a2 := a1.Clone()
		a3 := a1.Clone()
		before := a1.Len()
		a1.UnionWith(b)
		changed := a2.UnionChanged(b)
		count := a3.UnionCount(b)
		return a1.Equal(a2) && a1.Equal(a3) &&
			changed == (a1.Len() > before) &&
			count == a1.Len()-before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWithinGrowsOutOfItsBuffer carves three one-word sets side by side
// from one buffer and grows the middle one to two words, which the
// buffer's spare capacity would hold, by each route a set can grow: it
// keeps its elements, moves to storage of its own, and leaves both
// neighbours' words as they were.
func TestWithinGrowsOutOfItsBuffer(t *testing.T) {
	for _, tc := range []struct {
		name string
		grow func(s *Set)
	}{
		{"Add", func(s *Set) { s.Add(100) }},
		{"UnionWith", func(s *Set) { s.UnionWith(FromSlice([]int{100})) }},
		{"CopyFrom", func(s *Set) { s.CopyFrom(FromSlice([]int{5, 63, 100})) }},
		{"SetWords", func(s *Set) { s.SetWords([]uint64{1<<5 | 1<<63, 1 << 36}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			a, b, c := Within(buf[0:1]), Within(buf[1:2]), Within(buf[2:3])
			if !a.Empty() || !b.Empty() || !c.Empty() {
				t.Fatalf("carved sets not empty: %v %v %v", &a, &b, &c)
			}
			a.Add(1)
			b.Add(5)
			b.Add(63)
			c.Add(62)
			tc.grow(&b)
			if got, want := b.Elements(), []int{5, 63, 100}; !slices.Equal(got, want) {
				t.Fatalf("grown set holds %v, want %v", got, want)
			}
			if &b.Words()[0] == &buf[1] {
				t.Fatal("grown set still stored in its share of the buffer")
			}
			b.Add(64)
			if buf[0] != 1<<1 || buf[2] != 1<<62 {
				t.Fatalf("neighbours' words changed: %#x %#x", buf[0], buf[2])
			}
			if !a.Equal(FromSlice([]int{1})) || !c.Equal(FromSlice([]int{62})) {
				t.Fatalf("neighbours changed: %v %v", &a, &c)
			}
		})
	}
}
