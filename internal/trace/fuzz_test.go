package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/xrand"
)

// diffRound is one hand-encoded version-2 round: edge removals, edge
// additions, then (node, role) and (node, cluster) changes, in file order.
type diffRound struct {
	remove, add [][2]int
	roles       [][2]int
	clusters    [][2]int
}

// encodeRaw writes a version-2 file byte by byte, with no normalisation:
// the diffs may re-add present edges, remove absent ones, name self-loops
// or touch one node twice, as a hand-edited or foreign file might.
func encodeRaw(n int, edges [][2]int, roles, clusters []int, diffs []diffRound) []byte {
	b := []byte(magic)
	b = append(b, versionDelta)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(1+len(diffs)))
	pairs := func(ps [][2]int) {
		b = binary.AppendUvarint(b, uint64(len(ps)))
		for _, p := range ps {
			b = binary.AppendUvarint(b, uint64(p[0]))
			b = binary.AppendUvarint(b, uint64(p[1]))
		}
	}
	pairs(edges)
	for _, r := range roles {
		b = append(b, byte(r))
	}
	for _, c := range clusters {
		b = binary.AppendUvarint(b, uint64(c+1))
	}
	for _, d := range diffs {
		pairs(d.remove)
		pairs(d.add)
		b = binary.AppendUvarint(b, uint64(len(d.roles)))
		for _, rc := range d.roles {
			b = binary.AppendUvarint(b, uint64(rc[0]))
			b = append(b, byte(rc[1]))
		}
		b = binary.AppendUvarint(b, uint64(len(d.clusters)))
		for _, cc := range d.clusters {
			b = binary.AppendUvarint(b, uint64(cc[0]))
			b = binary.AppendUvarint(b, uint64(cc[1]+1))
		}
	}
	return b
}

// nonStrictSeeds are version-2 files whose diffs are not strict deltas.
// A 4-node path 0-1-2-3 (head 0, member 1, gateway 2, unaffiliated 3)
// gets one odd round, then a plain change so a later window exists too.
func nonStrictSeeds() [][]byte {
	head, member, gateway, unaff := int(ctvg.Head), int(ctvg.Member), int(ctvg.Gateway), int(ctvg.Unaffiliated)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	roles := []int{head, member, gateway, unaff}
	clusters := []int{0, 0, 0, -1}
	plain := diffRound{add: [][2]int{{0, 3}}}
	var seeds [][]byte
	for _, odd := range []diffRound{
		{add: [][2]int{{0, 1}}},                           // re-adds a present edge
		{remove: [][2]int{{0, 3}}},                        // removes an absent edge
		{add: [][2]int{{2, 2}}, remove: [][2]int{{1, 1}}}, // self-loops
		{remove: [][2]int{{1, 2}}, add: [][2]int{{2, 1}}}, // removes and re-adds one edge
		// Changes node 3's role twice (back to where it started) and node
		// 1's twice (to a new role), plus node 1's cluster twice.
		{roles: [][2]int{{3, member}, {3, unaff}, {1, gateway}, {1, head}}, clusters: [][2]int{{1, 2}, {1, 1}}},
	} {
		seeds = append(seeds, encodeRaw(4, edges, roles, clusters, []diffRound{odd, plain}))
	}
	// Version 1 with a repeated edge and a self-loop in one round's list.
	v1 := []byte(magic)
	v1 = append(v1, version, 3, 2)
	v1 = append(v1, 3, 0, 1, 1, 0, 2, 2, byte(head), byte(member), byte(unaff), 1, 1, 0)
	v1 = append(v1, 1, 1, 2, byte(head), byte(member), byte(member), 1, 1, 1)
	return append(seeds, v1)
}

// declaredSize parses a file's header. A file shorter than its declared
// node or round count cannot be complete: round 0 alone needs n role
// bytes, and every round needs at least one byte.
func declaredSize(data []byte) (n, rounds uint64, ok bool) {
	if len(data) < len(magic)+1 {
		return 0, 0, false
	}
	rest := data[len(magic)+1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, false
	}
	rounds, j := binary.Uvarint(rest[k:])
	return n, rounds, j > 0
}

// sameTrace fails unless a agrees with the snapshots b on every round
// (and a few past the end): snapshot, hierarchy and stability window.
func sameTrace(t *testing.T, what string, a *ctvg.DeltaTrace, b *snapshots) {
	t.Helper()
	if a.N() != b.gs[0].N() || a.Len() != len(b.gs) {
		t.Fatalf("%s: shape %d/%d, want %d/%d", what, a.N(), a.Len(), b.gs[0].N(), len(b.gs))
	}
	for r := 0; r < a.Len()+2; r++ {
		g, h := b.at(r)
		if !a.At(r).Equal(g) {
			t.Fatalf("%s: round %d snapshots differ", what, r)
		}
		if !a.HierarchyAt(r).Equal(h) {
			t.Fatalf("%s: round %d hierarchies differ", what, r)
		}
		if x, y := a.StableUntil(r), b.stableUntil(r); x != y {
			t.Fatalf("%s: round %d StableUntil %d, want %d", what, r, x, y)
		}
	}
}

// FuzzRead drives the trace decoder with arbitrary bytes. It must never
// panic, and it must agree with the snapshot decoder it replaced
// (oracleRead): on every input either both fail, or both give the same
// snapshot, hierarchy and stability window on every round. Any trace it
// accepts must survive re-encoding in both formats unchanged.
func FuzzRead(f *testing.F) {
	// Seed corpus: a real encoded trace plus adversarial prefixes.
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 8, Theta: 3, L: 2, T: 3, ChurnEdges: 1,
	}, xrand.New(1))
	short := ctvg.Record(adv, 4)
	var buf bytes.Buffer
	if err := Write(&buf, short); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var dbuf bytes.Buffer
	if err := WriteDelta(&dbuf, short); err != nil {
		f.Fatal(err)
	}
	f.Add(dbuf.Bytes())
	// A longer multi-phase trace with re-affiliations and edge churn — the
	// kind `hinettrace stats` replays — in both formats, so the fuzzer
	// starts from inputs that exercise delta chains across phase
	// boundaries, not just a single short phase.
	long := adversary.NewHiNet(adversary.HiNetConfig{
		N: 12, Theta: 4, L: 2, T: 4,
		Reaffiliations: 2, ChurnEdges: 3,
	}, xrand.New(7))
	rec := ctvg.Record(long, 12)
	var lbuf, ldbuf bytes.Buffer
	if err := Write(&lbuf, rec); err != nil {
		f.Fatal(err)
	}
	f.Add(lbuf.Bytes())
	if err := WriteDelta(&ldbuf, rec); err != nil {
		f.Fatal(err)
	}
	f.Add(ldbuf.Bytes())
	f.Add([]byte("CTVG\x02"))
	f.Add([]byte("CTVG\x01"))
	f.Add([]byte("CTVG\x01\x05\x01"))
	f.Add([]byte{})
	f.Add([]byte("XXXXXXXX"))
	for _, s := range nonStrictSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if n, rounds, ok := declaredSize(data); ok && (n > uint64(len(data)) || rounds > uint64(len(data))) {
			// The oracle would allocate for the declared sizes before
			// running out of bytes; the verdict is known without it.
			if err == nil {
				t.Fatalf("accepted a %d-byte trace declaring n=%d, %d rounds", len(data), n, rounds)
			}
			return
		}
		want, oerr := oracleRead(bytes.NewReader(data))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decoders disagree: Read error %v, snapshot decoder error %v", err, oerr)
		}
		if err != nil {
			return
		}
		sameTrace(t, "decoded", tr, want)
		for _, enc := range []struct {
			name  string
			write func(io.Writer, *ctvg.DeltaTrace) error
		}{{"full", Write}, {"delta", WriteDelta}} {
			var out bytes.Buffer
			if err := enc.write(&out, tr); err != nil {
				t.Fatalf("re-encode (%s) failed: %v", enc.name, err)
			}
			back, err := Read(&out)
			if err != nil {
				t.Fatalf("re-decode (%s) failed: %v", enc.name, err)
			}
			sameTrace(t, "round trip via "+enc.name, back, want)
		}
	})
}
