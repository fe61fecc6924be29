// Package bitset implements a dense, growable bit set over non-negative
// integer elements.
//
// The simulator uses bit sets to represent token sets: with k tokens drawn
// from {0..k-1}, set algebra (union into TA, difference TA \ (TS ∪ TR),
// min/max of a difference) dominates the inner loop of every protocol, so
// the representation is a packed []uint64 with word-at-a-time operations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity hint n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Within returns an empty set stored in buf, with room for 64·len(buf)
// elements. Its capacity is capped at len(buf): a set that grows past buf
// moves to storage of its own, so sets carved side by side from one buffer
// never write into each other's words.
func Within(buf []uint64) Set {
	clear(buf)
	return Set{words: buf[:len(buf):len(buf)]}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// grow ensures the set can index bit i. Spare capacity is reused without
// allocating; the exposed extension is zeroed because it may hold stale
// words from before a CopyFrom/SetWords shrank the set.
func (s *Set) grow(i int) {
	need := i/wordBits + 1
	if need <= len(s.words) {
		return
	}
	if need <= cap(s.words) {
		n := len(s.words)
		s.words = s.words[:need]
		for j := n; j < need; j++ {
			s.words[j] = 0
		}
		return
	}
	w := make([]uint64, need)
	copy(w, s.words)
	s.words = w
}

// Add inserts element i. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative element")
	}
	s.grow(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes element i if present. Negative i is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 || i/wordBits >= len(s.words) {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i/wordBits >= len(s.words) {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s an exact copy of o, reusing s's storage when it has the
// capacity (the allocation-free counterpart of Clone; nil o empties s).
func (s *Set) CopyFrom(o *Set) {
	if o == nil {
		s.words = s.words[:0]
		return
	}
	if cap(s.words) >= len(o.words) {
		s.words = s.words[:len(o.words)]
	} else {
		s.words = make([]uint64, len(o.words))
	}
	copy(s.words, o.words)
}

// UnionWith adds every element of o to s (s ∪= o).
func (s *Set) UnionWith(o *Set) {
	if o == nil {
		return
	}
	if len(o.words) > len(s.words) {
		s.grow(len(o.words)*wordBits - 1)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// UnionChanged adds every element of o to s (s ∪= o) and reports whether s
// gained any element: a receiver that unions an incoming token set can tell
// in the same word-level pass whether the message taught it anything,
// without a separate Len or Equal sweep.
func (s *Set) UnionChanged(o *Set) bool {
	if o == nil {
		return false
	}
	if len(o.words) > len(s.words) {
		s.grow(len(o.words)*wordBits - 1)
	}
	changed := false
	for i, w := range o.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionCount adds every element of o to s (s ∪= o) and returns how many
// elements s gained (|o \ s| before the union). Like UnionChanged it costs
// one word-level pass and allocates nothing beyond any required growth.
func (s *Set) UnionCount(o *Set) int {
	if o == nil {
		return 0
	}
	if len(o.words) > len(s.words) {
		s.grow(len(o.words)*wordBits - 1)
	}
	added := 0
	for i, w := range o.words {
		old := s.words[i]
		if d := w &^ old; d != 0 {
			s.words[i] = old | w
			added += bits.OnesCount64(d)
		}
	}
	return added
}

// IntersectWith removes from s every element not in o (s ∩= o).
func (s *Set) IntersectWith(o *Set) {
	if o == nil {
		s.Clear()
		return
	}
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &= o.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// DifferenceWith removes every element of o from s (s \= o).
func (s *Set) DifferenceWith(o *Set) {
	if o == nil {
		return
	}
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
}

// Union returns a new set s ∪ o.
func Union(s, o *Set) *Set {
	r := s.Clone()
	r.UnionWith(o)
	return r
}

// Difference returns a new set s \ o.
func Difference(s, o *Set) *Set {
	r := s.Clone()
	r.DifferenceWith(o)
	return r
}

// Intersection returns a new set s ∩ o.
func Intersection(s, o *Set) *Set {
	r := s.Clone()
	r.IntersectWith(o)
	return r
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	if o == nil {
		return s == nil || s.Empty()
	}
	a, b := s.words, o.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		var ow uint64
		if o != nil && i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// MinNotIn returns the smallest element of s that is not in o, or -1 if
// s \ o is empty. It allocates nothing.
func (s *Set) MinNotIn(o *Set) int {
	for i, w := range s.words {
		var ow uint64
		if o != nil && i < len(o.words) {
			ow = o.words[i]
		}
		if d := w &^ ow; d != 0 {
			return i*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// MaxNotIn returns the largest element of s that is not in o, or -1 if
// s \ o is empty. It allocates nothing.
func (s *Set) MaxNotIn(o *Set) int {
	for i := len(s.words) - 1; i >= 0; i-- {
		w := s.words[i]
		var ow uint64
		if o != nil && i < len(o.words) {
			ow = o.words[i]
		}
		if d := w &^ ow; d != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(d)
		}
	}
	return -1
}

// MinNotInUnion returns the smallest element of s that is in neither a nor
// b — Min of s \ (a ∪ b) without materialising the union. It allocates
// nothing; either argument may be nil.
func (s *Set) MinNotInUnion(a, b *Set) int {
	for i, w := range s.words {
		var ow uint64
		if a != nil && i < len(a.words) {
			ow = a.words[i]
		}
		if b != nil && i < len(b.words) {
			ow |= b.words[i]
		}
		if d := w &^ ow; d != 0 {
			return i*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// MaxNotInUnion returns the largest element of s that is in neither a nor
// b — Max of s \ (a ∪ b) without materialising the union. It allocates
// nothing; either argument may be nil.
func (s *Set) MaxNotInUnion(a, b *Set) int {
	for i := len(s.words) - 1; i >= 0; i-- {
		w := s.words[i]
		var ow uint64
		if a != nil && i < len(a.words) {
			ow = a.words[i]
		}
		if b != nil && i < len(b.words) {
			ow |= b.words[i]
		}
		if d := w &^ ow; d != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(d)
		}
	}
	return -1
}

// Elements returns the elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Range calls fn for each element in ascending order; it stops early if fn
// returns false.
func (s *Set) Range(fn func(i int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// String formats the set as {a, b, c}.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.Range(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// Words exposes the packed representation (for codecs). The returned slice
// aliases the set's storage and must not be modified.
func (s *Set) Words() []uint64 {
	return s.words
}

// SetWords replaces the packed representation (for codecs). The slice is
// copied; existing storage is reused when it has the capacity.
func (s *Set) SetWords(w []uint64) {
	if cap(s.words) >= len(w) {
		s.words = s.words[:len(w)]
	} else {
		s.words = make([]uint64, len(w))
	}
	copy(s.words, w)
}
