package obs

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// runTimed runs Algorithm 1 over tr with a fresh timing sink and returns
// the JSONL bytes, the sink and the engine metrics.
func runTimed(t testing.TB, tr *ctvg.DeltaTrace, k, T, workers int, cfg TimingConfig) ([]byte, *Timing, *sim.Metrics) {
	t.Helper()
	assign := token.Spread(tr.N(), k, xrand.New(9))
	var sink bytes.Buffer
	if cfg.Sink == nil {
		cfg.Sink = &sink
	}
	tm := NewTiming(cfg)
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: tr.Len(),
		Workers:   workers,
		Timing:    tm,
	})
	if err := tm.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), tm, met
}

func TestTimingRoundSeries(t *testing.T) {
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	raw, tm, met := runTimed(t, tr, k, T, 0, TimingConfig{SampleEvery: 10})

	if tm.Rounds() != met.Rounds {
		t.Fatalf("timing recorded %d rounds, engine ran %d", tm.Rounds(), met.Rounds)
	}
	rows, err := ParseTiming(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != met.Rounds {
		t.Fatalf("parsed %d timing rows, want %d", len(rows), met.Rounds)
	}
	for i, row := range rows {
		if row.Round != i {
			t.Fatalf("row %d has round %d", i, row.Round)
		}
		if len(row.Wall) != int(sim.NumStages) || len(row.CPU) != int(sim.NumStages) {
			t.Fatalf("row %d has %d wall / %d cpu stages, want %d",
				i, len(row.Wall), len(row.CPU), sim.NumStages)
		}
		for st := sim.Stage(0); st < sim.NumStages; st++ {
			if _, ok := row.Wall[st.String()]; !ok {
				t.Fatalf("row %d missing wall stage %q", i, st)
			}
		}
		// Resource samples land exactly on the configured interval.
		if got, want := row.Res != nil, i%10 == 0; got != want {
			t.Fatalf("row %d res presence = %v, want %v", i, got, want)
		}
	}
	// Round 0 always samples, and the arena must have handed something out.
	if rows[0].Res == nil || rows[0].Res.ArenaMsgs == 0 || rows[0].Res.ArenaSetBytes == 0 {
		t.Fatalf("round-0 resource sample missing or empty: %+v", rows[0].Res)
	}
	if tm.Resources().HeapInuse == 0 || tm.Resources().Goroutines == 0 {
		t.Fatalf("final resource sample empty: %+v", tm.Resources())
	}

	// The run breakdown must reconcile with the emitted series, and the
	// engine must have spent real time in the load-bearing stages.
	breaks := tm.Breakdown()
	sum := SummarizeTiming(rows)
	if len(breaks) != int(sim.NumStages) || len(sum) != len(breaks) {
		t.Fatalf("breakdown has %d stages, summary %d, want %d", len(breaks), len(sum), sim.NumStages)
	}
	var share float64
	for i := range breaks {
		if breaks[i] != sum[i] {
			t.Fatalf("stage %s: breakdown %+v != series summary %+v", breaks[i].Stage, breaks[i], sum[i])
		}
		share += breaks[i].Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("stage shares sum to %v, want 1", share)
	}
	for _, st := range []sim.Stage{sim.StageCollect, sim.StageDeliver, sim.StageProgress} {
		if breaks[st].WallNs <= 0 {
			t.Fatalf("stage %s recorded no wall time", st)
		}
	}
	// Serial runs execute shards on the engine goroutine: the shard clock
	// nests inside the wall segment for the fan-out stages (so CPU is
	// positive but no larger than wall), and every other stage reports its
	// wall time as its CPU time.
	for st, b := range breaks {
		switch sim.Stage(st) {
		case sim.StageCollect, sim.StageDeliver:
			if b.CPUNs <= 0 || b.CPUNs > b.WallNs {
				t.Fatalf("serial stage %s: cpu %d outside (0, wall=%d]", b.Stage, b.CPUNs, b.WallNs)
			}
		default:
			if b.CPUNs != b.WallNs {
				t.Fatalf("serial stage %s: cpu %d != wall %d", b.Stage, b.CPUNs, b.WallNs)
			}
		}
	}

	// The table renders one row per stage.
	var tbl strings.Builder
	if err := TimingTable("t", breaks, tm.Rounds()).WriteText(&tbl); err != nil {
		t.Fatal(err)
	}
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		if !strings.Contains(tbl.String(), st.String()) {
			t.Fatalf("timing table missing stage %q:\n%s", st, tbl.String())
		}
	}
}

// TestTimingSerialParallelByteIdentical is the determinism contract of the
// timing stream: with durations normalized away, a serial and a Workers=4
// run over the same trace must emit byte-identical JSONL — same rounds,
// same stage structure, same resource-sample placement. CI re-checks the
// same property end to end through the hinetsim binary.
func TestTimingSerialParallelByteIdentical(t *testing.T) {
	const n, k, T, rounds = 64, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	serial, _, metS := runTimed(t, tr, k, T, 0, TimingConfig{Normalize: true})
	par, _, metP := runTimed(t, tr, k, T, 4, TimingConfig{Normalize: true})
	if metS.Rounds != metP.Rounds || metS.TokensSent != metP.TokensSent {
		t.Fatalf("serial and parallel runs diverged: %v vs %v", metS, metP)
	}
	if !bytes.Equal(serial, par) {
		t.Fatalf("normalized timing JSONL differs between serial and Workers=4:\nserial: %s\npar:    %s",
			firstDiffLine(serial, par), firstDiffLine(par, serial))
	}
	// Normalized output has zeroed durations but intact structure.
	rows, err := ParseTiming(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != metS.Rounds {
		t.Fatalf("normalized stream has %d rows, want %d", len(rows), metS.Rounds)
	}
	for _, row := range rows {
		for st, v := range row.Wall {
			if v != 0 {
				t.Fatalf("normalized wall[%s] = %d, want 0", st, v)
			}
		}
	}
}

// firstDiffLine returns the first line at which a and b differ.
func firstDiffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return "line " + strconv.Itoa(i+1) + ": " + string(al[i])
		}
	}
	return ""
}

func TestTimingRegistry(t *testing.T) {
	const n, k, T, rounds = 64, 6, 12, 32
	tr := testTrace(t, n, rounds, T)
	reg := NewRegistry()
	_, tm, met := runTimed(t, tr, k, T, 4, TimingConfig{Registry: reg})

	// Per-stage round histograms carry one observation per round; the
	// cumulative counters must agree with the run breakdown.
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		h := reg.Histogram(`sim_stage_round_ns{stage="`+st.String()+`"}`, "", DurationBuckets)
		if h.Count() != int64(met.Rounds) {
			t.Fatalf("stage %s histogram has %d observations, want %d", st, h.Count(), met.Rounds)
		}
		c := reg.Counter(`sim_stage_wall_ns_total{stage="`+st.String()+`"}`, "")
		if c.Value() != tm.Breakdown()[st].WallNs {
			t.Fatalf("stage %s counter %d != breakdown %d", st, c.Value(), tm.Breakdown()[st].WallNs)
		}
	}
	// Four shards → four per-shard histograms per fan-out stage, each with
	// one observation per round.
	for s := 0; s < 4; s++ {
		for _, stage := range []sim.Stage{sim.StageCollect, sim.StageDeliver} {
			name := `sim_stage_shard_ns{stage="` + stage.String() + `",shard="` +
				string(rune('0'+s)) + `"}`
			h := reg.Histogram(name, "", DurationBuckets)
			if h.Count() != int64(met.Rounds) {
				t.Fatalf("%s has %d observations, want %d", name, h.Count(), met.Rounds)
			}
		}
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"sim_stage_round_ns", "sim_stage_shard_ns", "sim_stage_wall_ns_total",
		"sim_heap_inuse_bytes", "sim_goroutines", "sim_arena_set_bytes",
	} {
		if !strings.Contains(text.String(), fam) {
			t.Fatalf("exposition missing %s family", fam)
		}
	}
}

// failAfterWriter fails every write once n bytes have been accepted —
// a stand-in for a full disk.
type failAfterWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

func TestTimingSinkErrorPropagates(t *testing.T) {
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(tr.N(), k, xrand.New(9))
	tm := NewTiming(TimingConfig{Sink: &failAfterWriter{n: 8 << 10}})
	sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: tr.Len(),
		Timing:    tm,
	})
	if err := tm.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush() = %v, want the sink's write error", err)
	}
	if err := tm.Err(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Err() = %v, want the sink's write error", err)
	}
	// Flush stays idempotent: the same error, not a new one, on re-call.
	if err := tm.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("second Flush() = %v, want the sink's write error", err)
	}
}

func TestTimingOffRunUnchanged(t *testing.T) {
	// A run with timing attached must not change the simulation itself:
	// metrics are bit-identical to an uninstrumented run.
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(tr.N(), k, xrand.New(9))
	plain := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{MaxRounds: tr.Len()})
	_, _, timed := runTimed(t, tr, k, T, 0, TimingConfig{})
	if *plain != *timed {
		t.Fatalf("timing perturbed the run:\nplain %+v\ntimed %+v", plain, timed)
	}
}
