// Package trace implements a compact binary record/replay format for CTVG
// traces (per-round communication graphs plus cluster hierarchies).
//
// Recorded traces make experiments forensically replayable: an adversary's
// run can be frozen to disk, inspected with cmd/hinettrace, and replayed
// bit-identically against any protocol. The format is self-contained and
// versioned:
//
//	magic "CTVG"  version u8
//	n varint, rounds varint
//	per round:
//	  m varint, then m edge pairs (u varint, v varint)
//	  n role bytes
//	  n cluster varints (value+1, so NoCluster=-1 encodes as 0)
//
// Both versions decode into a ctvg.DeltaTrace: one base snapshot and
// hierarchy plus one (graph delta, hierarchy delta) pair per round that
// changes anything, so a decoded trace costs O(E + changes) memory, not one
// snapshot per round.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

const (
	magic   = "CTVG"
	version = 1
)

// encoder writes the format's primitives. bufio.Writer errors are sticky,
// so callers check only the final Flush.
type encoder struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func newEncoder(w io.Writer, v byte, t *ctvg.DeltaTrace) *encoder {
	e := &encoder{bw: bufio.NewWriter(w)}
	e.bw.WriteString(magic)
	e.bw.WriteByte(v)
	e.uvarint(uint64(t.N()))
	e.uvarint(uint64(t.Len()))
	return e
}

func (e *encoder) uvarint(x uint64) {
	n := binary.PutUvarint(e.buf[:], x)
	e.bw.Write(e.buf[:n])
}

func (e *encoder) edges(es []graph.Edge) {
	e.uvarint(uint64(len(es)))
	for _, ed := range es {
		e.uvarint(uint64(ed.U))
		e.uvarint(uint64(ed.V))
	}
}

// hierarchy writes n role bytes, then n cluster varints.
func (e *encoder) hierarchy(h *ctvg.Hierarchy) {
	for _, role := range h.Role {
		e.bw.WriteByte(byte(role))
	}
	for _, c := range h.Cluster {
		e.uvarint(uint64(c + 1))
	}
}

// Write serialises a recording in the full (version 1) format. Rounds are
// read in ascending order, so the trace's cursor only ever steps forward.
func Write(w io.Writer, t *ctvg.DeltaTrace) error {
	e := newEncoder(w, version, t)
	for r := 0; r < t.Len(); r++ {
		e.edges(t.At(r).Edges())
		e.hierarchy(t.HierarchyAt(r))
	}
	return e.bw.Flush()
}

// Read deserialises a trace written by Write (version 1) or WriteDelta
// (version 2), dispatching on the version byte. The result is a stateful
// cursor (see ctvg.DeltaTrace): give each concurrent run its own. Its
// rounds follow the lifetime rule of ctvg.Dynamic, so a reader that keeps
// a round's graph or hierarchy past two further windows copies it.
func Read(r io.Reader) (*ctvg.DeltaTrace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(magic)])
	}
	d := &decoder{br: br}
	switch head[len(magic)] {
	case version:
		return d.full()
	case versionDelta:
		return d.delta()
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
}

// decoder reads the format's primitives. Every allocation it makes is
// proportional to bytes actually read, so a short file claiming a huge n
// fails cheaply.
type decoder struct {
	br        *bufio.Reader
	n, rounds int
	bd        *graph.Builder
}

func (d *decoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.br) }

// header reads n and the round count.
func (d *decoder) header() error {
	n64, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: reading n: %w", err)
	}
	rounds64, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: reading rounds: %w", err)
	}
	const limit = 1 << 24
	if n64 > limit || rounds64 > limit {
		return fmt.Errorf("trace: implausible sizes n=%d rounds=%d", n64, rounds64)
	}
	d.n, d.rounds = int(n64), int(rounds64)
	if d.rounds == 0 {
		return fmt.Errorf("trace: empty trace")
	}
	d.bd = graph.NewBuilder(d.n)
	return nil
}

// edges reads one edge list of round r, handing each in-range pair to fn.
func (d *decoder) edges(r int, fn func(u, v int)) error {
	m64, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: round %d edge count: %w", r, err)
	}
	if m64 > uint64(d.n)*uint64(d.n) {
		return fmt.Errorf("trace: round %d implausible edge count %d", r, m64)
	}
	for j := uint64(0); j < m64; j++ {
		u64, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: round %d edge %d: %w", r, j, err)
		}
		v64, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: round %d edge %d: %w", r, j, err)
		}
		if u64 >= uint64(d.n) || v64 >= uint64(d.n) {
			return fmt.Errorf("trace: round %d edge %d out of range", r, j)
		}
		fn(int(u64), int(v64))
	}
	return nil
}

// snapshot reads one full round: its edge list, then its hierarchy. The
// graph is built only once the hierarchy has been read in full. Repeated
// edges and self-loops add nothing, as AddEdge's no-ops.
func (d *decoder) snapshot(r int) (*graph.Graph, *ctvg.Hierarchy, error) {
	if err := d.edges(r, d.bd.Add); err != nil {
		return nil, nil, err
	}
	var h ctvg.Hierarchy
	for v := 0; v < d.n; v++ {
		b, err := d.br.ReadByte()
		if err != nil {
			return nil, nil, fmt.Errorf("trace: round %d roles: %w", r, err)
		}
		if b > byte(ctvg.Unaffiliated) {
			return nil, nil, fmt.Errorf("trace: round %d node %d invalid role %d", r, v, b)
		}
		h.Role = append(h.Role, ctvg.Role(b))
	}
	for v := 0; v < d.n; v++ {
		c64, err := d.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("trace: round %d clusters: %w", r, err)
		}
		if c64 > uint64(d.n) {
			return nil, nil, fmt.Errorf("trace: round %d node %d cluster out of range", r, v)
		}
		h.Cluster = append(h.Cluster, int(c64)-1)
	}
	return d.bd.Build(), &h, nil
}

// full decodes the body of a version-1 trace, diffing each round against
// the previous one as it is read: only two snapshots are held at a time.
func (d *decoder) full() (*ctvg.DeltaTrace, error) {
	if err := d.header(); err != nil {
		return nil, err
	}
	baseG, baseH, err := d.snapshot(0)
	if err != nil {
		return nil, err
	}
	var w windows
	prevG, prevH := baseG, baseH
	for r := 1; r < d.rounds; r++ {
		g, h, err := d.snapshot(r)
		if err != nil {
			return nil, err
		}
		w.add(r, graph.DeltaBetween(prevG, g), ctvg.HierarchyDeltaBetween(prevH, h))
		prevG, prevH = g, h
	}
	return ctvg.NewDeltaTrace(baseG, baseH, w.starts, w.gdeltas, w.hdeltas, d.rounds), nil
}

// windows accumulates a DeltaTrace's window transitions as rounds decode.
type windows struct {
	starts  []int
	gdeltas []*graph.Delta
	hdeltas []ctvg.HierarchyDelta
}

// add records round r's change; a round that changes nothing extends the
// current window.
func (w *windows) add(r int, gd *graph.Delta, hd ctvg.HierarchyDelta) {
	if gd.Empty() && len(hd) == 0 {
		return
	}
	w.starts = append(w.starts, r)
	w.gdeltas = append(w.gdeltas, gd)
	w.hdeltas = append(w.hdeltas, hd)
}
