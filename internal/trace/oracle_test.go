package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

// snapshots is a decoded trace as one graph and one hierarchy per round;
// rounds past the end repeat the last.
type snapshots struct {
	gs []*graph.Graph
	hs []*ctvg.Hierarchy
}

// at returns round r's graph and hierarchy.
func (s snapshots) at(r int) (*graph.Graph, *ctvg.Hierarchy) {
	r = min(r, len(s.gs)-1)
	return s.gs[r], s.hs[r]
}

// stableUntil is the last round of r's stability window, found by
// comparing the rounds after r with r.
func (s snapshots) stableUntil(r int) int {
	for e := r; e < len(s.gs)-1; e++ {
		if !s.gs[e+1].Equal(s.gs[r]) || !s.hs[e+1].Equal(s.hs[r]) {
			return e
		}
	}
	return math.MaxInt
}

// oracleRead is the snapshot decoder: it materialises one graph and one
// hierarchy per round. It is the differential oracle for Read, which
// builds a ctvg.DeltaTrace from the same bytes.
func oracleRead(r io.Reader) (*snapshots, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(magic)])
	}
	switch head[len(magic)] {
	case version:
		return oracleFull(br)
	case versionDelta:
		return oracleDelta(br)
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
}

// oracleFull decodes the body of a version-1 trace.
func oracleFull(br *bufio.Reader) (*snapshots, error) {
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	n64, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading n: %w", err)
	}
	rounds64, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading rounds: %w", err)
	}
	const limit = 1 << 24
	if n64 > limit || rounds64 > limit {
		return nil, fmt.Errorf("trace: implausible sizes n=%d rounds=%d", n64, rounds64)
	}
	n, rounds := int(n64), int(rounds64)
	if rounds == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	snaps := make([]*graph.Graph, rounds)
	hiers := make([]*ctvg.Hierarchy, rounds)
	for ri := 0; ri < rounds; ri++ {
		m64, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round %d edge count: %w", ri, err)
		}
		if m64 > uint64(n)*uint64(n) {
			return nil, fmt.Errorf("trace: round %d implausible edge count %d", ri, m64)
		}
		g := graph.New(n)
		for j := uint64(0); j < m64; j++ {
			u64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d edge %d: %w", ri, j, err)
			}
			v64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d edge %d: %w", ri, j, err)
			}
			if u64 >= uint64(n) || v64 >= uint64(n) {
				return nil, fmt.Errorf("trace: round %d edge %d out of range", ri, j)
			}
			g.AddEdge(int(u64), int(v64))
		}
		h := ctvg.NewHierarchy(n)
		for v := 0; v < n; v++ {
			b, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d roles: %w", ri, err)
			}
			if b > byte(ctvg.Unaffiliated) {
				return nil, fmt.Errorf("trace: round %d node %d invalid role %d", ri, v, b)
			}
			h.Role[v] = ctvg.Role(b)
		}
		for v := 0; v < n; v++ {
			c64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d clusters: %w", ri, err)
			}
			if c64 > uint64(n) {
				return nil, fmt.Errorf("trace: round %d node %d cluster out of range", ri, v)
			}
			h.Cluster[v] = int(c64) - 1
		}
		snaps[ri] = g
		hiers[ri] = h
	}
	return &snapshots{snaps, hiers}, nil
}

// oracleDelta decodes the body of a version-2 trace (magic and version
// already consumed), cloning the previous round's graph and hierarchy for
// every round.
func oracleDelta(br *bufio.Reader) (*snapshots, error) {
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	n64, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading n: %w", err)
	}
	rounds64, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading rounds: %w", err)
	}
	const limit = 1 << 24
	if n64 > limit || rounds64 > limit {
		return nil, fmt.Errorf("trace: implausible sizes n=%d rounds=%d", n64, rounds64)
	}
	n, rounds := int(n64), int(rounds64)
	if rounds == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}

	readEdgeList := func(g *graph.Graph, add bool, round int) error {
		m64, err := readUvarint()
		if err != nil {
			return fmt.Errorf("trace: round %d edge count: %w", round, err)
		}
		if m64 > uint64(n)*uint64(n) {
			return fmt.Errorf("trace: round %d implausible edge count %d", round, m64)
		}
		for j := uint64(0); j < m64; j++ {
			u64, err := readUvarint()
			if err != nil {
				return fmt.Errorf("trace: round %d edge %d: %w", round, j, err)
			}
			v64, err := readUvarint()
			if err != nil {
				return fmt.Errorf("trace: round %d edge %d: %w", round, j, err)
			}
			if u64 >= uint64(n) || v64 >= uint64(n) {
				return fmt.Errorf("trace: round %d edge %d out of range", round, j)
			}
			if add {
				g.AddEdge(int(u64), int(v64))
			} else {
				g.RemoveEdge(int(u64), int(v64))
			}
		}
		return nil
	}

	snaps := make([]*graph.Graph, rounds)
	hiers := make([]*ctvg.Hierarchy, rounds)

	// Round 0: full.
	g := graph.New(n)
	if err := readEdgeList(g, true, 0); err != nil {
		return nil, err
	}
	h := ctvg.NewHierarchy(n)
	for v := 0; v < n; v++ {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: round 0 roles: %w", err)
		}
		if b > byte(ctvg.Unaffiliated) {
			return nil, fmt.Errorf("trace: round 0 node %d invalid role %d", v, b)
		}
		h.Role[v] = ctvg.Role(b)
	}
	for v := 0; v < n; v++ {
		c64, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round 0 clusters: %w", err)
		}
		if c64 > uint64(n) {
			return nil, fmt.Errorf("trace: round 0 node %d cluster out of range", v)
		}
		h.Cluster[v] = int(c64) - 1
	}
	snaps[0] = g
	hiers[0] = h

	for r := 1; r < rounds; r++ {
		g = g.Clone()
		if err := readEdgeList(g, false, r); err != nil { // removals
			return nil, err
		}
		if err := readEdgeList(g, true, r); err != nil { // additions
			return nil, err
		}
		h = h.Clone()
		rc64, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round %d role changes: %w", r, err)
		}
		if rc64 > uint64(n) {
			return nil, fmt.Errorf("trace: round %d implausible role changes", r)
		}
		for j := uint64(0); j < rc64; j++ {
			v64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d role change %d: %w", r, j, err)
			}
			b, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d role change %d: %w", r, j, err)
			}
			if v64 >= uint64(n) || b > byte(ctvg.Unaffiliated) {
				return nil, fmt.Errorf("trace: round %d role change %d out of range", r, j)
			}
			h.Role[v64] = ctvg.Role(b)
		}
		cc64, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round %d cluster changes: %w", r, err)
		}
		if cc64 > uint64(n) {
			return nil, fmt.Errorf("trace: round %d implausible cluster changes", r)
		}
		for j := uint64(0); j < cc64; j++ {
			v64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d cluster change %d: %w", r, j, err)
			}
			c64, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d cluster change %d: %w", r, j, err)
			}
			if v64 >= uint64(n) || c64 > uint64(n) {
				return nil, fmt.Errorf("trace: round %d cluster change %d out of range", r, j)
			}
			h.Cluster[v64] = int(c64) - 1
		}
		snaps[r] = g
		hiers[r] = h
	}
	return &snapshots{snaps, hiers}, nil
}
