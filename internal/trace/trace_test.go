package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func recordedHiNet(t *testing.T, rounds int) *ctvg.DeltaTrace {
	t.Helper()
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 20, Theta: 4, L: 2, T: 5, Reaffiliations: 2, ChurnEdges: 3,
	}, xrand.New(5))
	return ctvg.Record(adv, rounds)
}

func TestRoundTrip(t *testing.T) {
	orig := recordedHiNet(t, 12)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.Len() != orig.Len() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.N(), got.Len(), orig.N(), orig.Len())
	}
	for r := 0; r < orig.Len(); r++ {
		if !got.At(r).Equal(orig.At(r)) {
			t.Fatalf("round %d graphs differ", r)
		}
		if !got.HierarchyAt(r).Equal(orig.HierarchyAt(r)) {
			t.Fatalf("round %d hierarchies differ", r)
		}
	}
}

// snapshotsOf deep-copies rounds [0, rounds) of d as they are generated
// and records the copies with ctvg.NewTrace, which diffs them, without
// reading d's own windows or deltas.
func snapshotsOf(d ctvg.Dynamic, rounds int) *ctvg.DeltaTrace {
	gs := make([]*graph.Graph, rounds)
	hs := make([]*ctvg.Hierarchy, rounds)
	for r := range gs {
		gs[r], hs[r] = d.At(r).DeepClone(), d.HierarchyAt(r).Clone()
	}
	return ctvg.NewTrace(gs, hs)
}

// TestStreamedRecordingMatchesSnapshotBytes pins the path `hinettrace
// record` takes: an adversary streamed through ctvg.Record must
// encode, in both formats, to exactly the bytes a round-by-round deep copy
// of its twin encodes to — across edge churn, re-affiliations and head
// churn — and decode to a valid trace.
func TestStreamedRecordingMatchesSnapshotBytes(t *testing.T) {
	const rounds = 60
	for _, cfg := range []adversary.HiNetConfig{
		{N: 10, Theta: 3, L: 2, T: 4, ChurnEdges: 1},
		// hinettrace record's defaults.
		{N: 50, Theta: 10, L: 2, T: 12, Reaffiliations: 3, ChurnEdges: 5},
		{N: 60, Theta: 12, L: 3, T: 5, Reaffiliations: 4, HeadChurn: 2},
		{N: 40, Theta: 8, L: 1, T: 3, Reaffiliations: 2, HeadChurn: 1, ChurnEdges: 6},
	} {
		for _, enc := range []struct {
			name  string
			write func(io.Writer, *ctvg.DeltaTrace) error
		}{{"full", Write}, {"delta", WriteDelta}} {
			var snap, streamed bytes.Buffer
			if err := enc.write(&snap, snapshotsOf(adversary.NewHiNet(cfg, xrand.New(9)), rounds)); err != nil {
				t.Fatal(err)
			}
			if err := enc.write(&streamed, ctvg.Record(adversary.NewHiNet(cfg, xrand.New(9)), rounds)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(streamed.Bytes(), snap.Bytes()) {
				t.Fatalf("%+v, %s format: the streamed recording encodes to %d bytes that differ from the snapshot recording's %d",
					cfg, enc.name, streamed.Len(), snap.Len())
			}
			got, err := Read(&streamed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != rounds || got.N() != cfg.N {
				t.Fatalf("shape %d/%d", got.N(), got.Len())
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("CTVG\x07"))); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	orig := recordedHiNet(t, 6)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at a spread of offsets; every prefix must error, never
	// panic or succeed.
	for _, cut := range []int{0, 3, 5, 7, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsCorruptRole(t *testing.T) {
	orig := recordedHiNet(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip every byte one at a time in the first quarter and require that
	// Read either errors or returns a structurally sane trace — never
	// panics.
	for i := len(magic) + 1; i < len(data)/4; i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		got, err := Read(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if got.N() < 0 || got.Len() < 1 {
			t.Fatalf("byte %d: corrupt accepted with insane shape", i)
		}
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	// Hand-craft a header with zero rounds.
	data := append([]byte("CTVG\x01"), 5, 0) // n=5, rounds=0
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("zero-round trace accepted")
	}
}

func BenchmarkWrite(b *testing.B) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: 10, Reaffiliations: 3, ChurnEdges: 10,
	}, xrand.New(1))
	tr := ctvg.Record(adv, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: 10, Reaffiliations: 3, ChurnEdges: 10,
	}, xrand.New(1))
	tr := ctvg.Record(adv, 50)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
