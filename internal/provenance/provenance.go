// Package provenance records per-token dissemination DAGs: one edge per
// first delivery of a token to a node, plus a redundancy account of the
// deliveries that taught nothing.
//
// The obs layer answers how much traffic each round carries; this package
// answers why dissemination finished when it did. Theorem 1's bound
// T ≥ k + α·L, M ≥ ⌈θ/α⌉ + 1 is an argument about causal token flow
// through the head hierarchy, so the tracer captures exactly that flow:
// which message first taught which node which token, through which role,
// at which round. On top of the DAG sit per-token critical paths, a
// run-level budget ledger against the theorem predictions, and an online
// pace checker that warns the moment a run falls behind the schedule the
// theorem requires — catching doomed runs mid-flight instead of at the
// stall watchdog.
//
// Design constraints mirror the obs layer: the tracer is opt-in (a nil
// sim.Options.Tracer costs one pointer test per hook site and zero
// allocations), sharded so the engine's parallel deliver phase never
// contends on it, and deterministic — a Workers > 1 run emits a stream
// byte-identical to the serial engine's on the same inputs.
package provenance

import (
	"io"
	"sort"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config configures a Tracer.
type Config struct {
	// Sink, when non-nil, receives the provenance JSONL stream (meta line,
	// then edge/round/pace records in round order, then one summary line
	// at Flush). Writes are buffered inside the tracer; call Flush.
	Sink io.Writer
	// Keep retains the full Log in memory for Log().
	Keep bool
	// Budget, when non-nil, arms the online pace checker: at the end of
	// every phase the weakest live head's token count is compared against
	// Theorem 1's schedule, and falling short emits a pace record, bumps
	// the sim_pace_violations_total counter and invokes OnPace.
	Budget *Budget
	// Registry, when non-nil, receives the sim_pace_violations_total
	// counter. (First/redundant delivery counters are owned by the obs
	// Collector, which sees the same per-round numbers through
	// sim.Observer.Deliveries.)
	Registry *obs.Registry
	// OnPace, when non-nil, is invoked from the engine goroutine for every
	// pace violation, in round order.
	OnPace func(PaceViolation)
	// SLA, when positive, arms the per-token delivery deadline monitor for
	// arrival-mode runs (the steady-state generalisation of the pace
	// checker): a token garbage-collected more than SLA rounds after its
	// arrival — or still outstanding that long when the run ends — emits an
	// sla record, bumps sim_sla_violations_total and invokes OnSLA.
	SLA int
	// OnSLA, when non-nil, is invoked from the engine goroutine for every
	// SLA violation, in round order (outstanding-at-end violations fire at
	// Flush).
	OnSLA func(SLAViolation)
}

// tshard is one worker shard's private tracer state. The engine's shard
// partition is fixed for a run and each node belongs to exactly one shard,
// so everything here is touched by a single goroutine per round.
type tshard struct {
	// edges buffers this round's first-delivery edges, ascending learner
	// (the shard walks its node range in order) and ascending token within
	// a learner.
	edges []Edge
	// red / redTokens / redByKind accumulate this round's redundancy.
	red       int64
	redTokens int64
	redByKind [sim.NumKinds]int64
	// redBySender accumulates whole-run per-sender redundant-message
	// counts. A shard hears messages from senders outside its node range,
	// so each shard needs the full n-sized array; they merge at Flush.
	redBySender []int64
	// newly / useful / credit are per-call scratch.
	newly  bitset.Set
	useful []bool
	credit []int32
}

// Tracer implements sim.Tracer. Create one per run with New, point
// sim.Options.Tracer at it, and call Flush when the run returns.
type Tracer struct {
	cfg    Config
	n, k   int
	round  int
	hier   *ctvg.Hierarchy
	known  []bitset.Set // per-node persistent known-token sets
	shards []tshard
	buf    []byte // encode scratch, flushed to Sink once per round
	err    error  // first Sink write error, sticky
	log    *Log   // non-nil when cfg.Keep

	meta           Meta
	first          int64
	redundant      int64
	redTokens      int64
	redByKind      [sim.NumKinds]int64
	paceViolations int
	paceC          *obs.Counter
	flushed        bool

	// Arrival-mode state (sim.ArrivalTracer), initialised lazily on the
	// first Injected/Collected callback so batch runs pay nothing. born/seq
	// shadow the engine's per-slot identity, liveArr the outstanding slots —
	// the SLA monitor needs both to age uncollected tokens at Flush.
	arrOn         bool
	born          []int
	seqs          []int64
	liveArr       bitset.Set
	arrivals      int64
	collectedTok  int64
	slaViolations int
	slaC          *obs.Counter

	// Self-stabilization totals (sim.MaintenanceTracer), fed once per
	// round by the engine when Options.SelfStabilize is set; batch and
	// oracle-hierarchy runs never see the callback and pay nothing.
	elections  int64
	adoptions  int64
	headMerges int64
	maintBeac  int64
}

// New returns a Tracer for a single run.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg}
	if cfg.Registry != nil {
		t.paceC = cfg.Registry.Counter("sim_pace_violations_total",
			"Phase boundaries at which a live head was behind the Theorem 1 pace.")
		t.slaC = cfg.Registry.Counter("sim_sla_violations_total",
			"Tokens that missed the per-token delivery deadline (Config.SLA).")
	}
	return t
}

// RunStart implements sim.Tracer: size the per-node and per-shard state,
// seed the known sets from the initial assignment, and emit the meta
// record. The known sets are never reset — a crash-recovered node rejoins
// with its token set intact (stable storage), and because its known set is
// intact too, re-deliveries of pre-crash tokens are counted as redundant,
// never as second first-deliveries.
func (t *Tracer) RunStart(n, k, shards int, nodes []sim.Node) {
	t.n, t.k = n, k
	t.known = make([]bitset.Set, n)
	holders := make([][]int, k)
	for v := 0; v < n; v++ {
		t.known[v].CopyFrom(nodes[v].Tokens())
		t.known[v].Range(func(tok int) bool {
			if tok < k {
				holders[tok] = append(holders[tok], v)
			}
			return true
		})
	}
	t.shards = make([]tshard, shards)
	for s := range t.shards {
		t.shards[s].redBySender = make([]int64, n)
	}
	t.meta = Meta{N: n, K: k, Holders: holders}
	if b := t.cfg.Budget; b != nil {
		t.meta.PhaseLen = b.PhaseLen
		t.meta.Phases = b.Phases
		t.meta.Alpha = b.Alpha
		t.meta.Theta = b.Theta
	}
	if t.cfg.Keep {
		t.log = &Log{Meta: t.meta}
	}
	if t.cfg.Sink != nil {
		t.buf = AppendMetaJSON(t.buf[:0], &t.meta)
		t.buf = append(t.buf, '\n')
		t.writeBuf()
	}
}

// RoundStart implements sim.Tracer.
func (t *Tracer) RoundStart(r int, hier *ctvg.Hierarchy) {
	t.round = r
	t.hier = hier
}

// Delivered implements sim.Tracer. It runs on the shard goroutine that
// owns node v, immediately after the node consumed its inbox: tokens is
// the node's post-delivery set, so the diff against the known set is
// exactly what this round's inbox taught. Each newly learned token is
// credited to the first message that carried it (non-coded directly;
// coded by coefficient membership, falling back to NoTeacher when no
// single packet explains the decode), and every cost-bearing message that
// taught nothing is charged to the redundancy account.
func (t *Tracer) Delivered(shard, v int, vw *sim.View, inbox []*sim.Message, tokens *bitset.Set) {
	sh := &t.shards[shard]
	known := &t.known[v]
	sh.newly.CopyFrom(tokens)
	sh.newly.DifferenceWith(known)

	if cap(sh.useful) < len(inbox) {
		sh.useful = make([]bool, len(inbox))
		sh.credit = make([]int32, len(inbox))
	}
	useful := sh.useful[:len(inbox)]
	credit := sh.credit[:len(inbox)]
	for i := range useful {
		useful[i] = false
		credit[i] = 0
	}

	if !sh.newly.Empty() {
		sh.newly.Range(func(tok int) bool {
			ti := -1
			for i, m := range inbox {
				if m.Kind != sim.KindCoded && m.Tokens != nil && m.Tokens.Contains(tok) {
					ti = i
					break
				}
			}
			if ti < 0 {
				// Coded attribution: the first packet whose coefficient
				// vector involves the token, else the decode has no single
				// source.
				for i, m := range inbox {
					if m.Kind == sim.KindCoded && m.Tokens != nil && m.Tokens.Contains(tok) {
						ti = i
						break
					}
				}
			}
			e := Edge{
				Round:       t.round,
				Token:       tok,
				Learner:     v,
				Teacher:     NoTeacher,
				Kind:        sim.KindCoded,
				TeacherRole: ctvg.Unaffiliated,
				Cluster:     vw.Head,
			}
			if ti >= 0 {
				m := inbox[ti]
				e.Teacher = m.From
				e.Kind = m.Kind
				e.TeacherRole = t.hier.Role[m.From]
				useful[ti] = true
				credit[ti]++
			}
			sh.edges = append(sh.edges, e)
			return true
		})
		known.CopyFrom(tokens)
	}

	for i, m := range inbox {
		if m.Cost() == 0 {
			continue
		}
		if !useful[i] {
			sh.red++
			if int(m.Kind) < sim.NumKinds {
				sh.redByKind[m.Kind]++
			}
			sh.redBySender[m.From]++
		}
		if m.Kind != sim.KindCoded && m.Tokens != nil {
			if extra := int64(m.Tokens.Len()) - int64(credit[i]); extra > 0 {
				sh.redTokens += extra
			}
		}
	}
}

// RoundEnd implements sim.Tracer: merge the shard buffers in shard order —
// ascending learner order, identical to a serial run — emit this round's
// records, and run the pace check at phase boundaries.
func (t *Tracer) RoundEnd(r int, crashed []bool) (first, redundant int) {
	// Note: t.buf is NOT reset here — writeBuf already leaves it empty, and
	// in arrival mode it holds this round's arrive records, appended by
	// Injected before the round ran. A reset here would silently discard
	// them (the bug the arrival-order regression test pins down).
	var redTok int64
	for s := range t.shards {
		sh := &t.shards[s]
		for i := range sh.edges {
			e := &sh.edges[i]
			if t.cfg.Sink != nil {
				t.buf = AppendEdgeJSON(t.buf, e)
				t.buf = append(t.buf, '\n')
				if len(t.buf) >= spillBytes {
					t.writeBuf()
				}
			}
			if t.log != nil {
				t.log.Edges = append(t.log.Edges, *e)
			}
		}
		first += len(sh.edges)
		redundant += int(sh.red)
		redTok += sh.redTokens
		for k := range sh.redByKind {
			t.redByKind[k] += sh.redByKind[k]
		}
		sh.edges = sh.edges[:0]
		sh.red, sh.redTokens = 0, 0
		sh.redByKind = [sim.NumKinds]int64{}
	}
	t.first += int64(first)
	t.redundant += int64(redundant)
	t.redTokens += redTok

	headMin, heads := -1, 0
	for v := 0; v < t.n; v++ {
		if t.hier.Role[v] == ctvg.Head && !crashed[v] {
			heads++
			if l := t.known[v].Len(); headMin < 0 || l < headMin {
				headMin = l
			}
		}
	}
	rec := RoundRec{
		Round: r, First: first, Redundant: redundant,
		RedundantTokens: redTok, HeadMin: headMin, Heads: heads,
	}
	if t.cfg.Sink != nil {
		t.buf = AppendRoundJSON(t.buf, &rec)
		t.buf = append(t.buf, '\n')
	}
	if t.log != nil {
		t.log.Rounds = append(t.log.Rounds, rec)
	}

	if b := t.cfg.Budget; b != nil && b.PhaseLen > 0 && (r+1)%b.PhaseLen == 0 && heads > 0 {
		phase := (r + 1) / b.PhaseLen
		if b.Phases <= 0 || phase <= b.Phases {
			if req := b.RequiredHeadMin(t.k, phase); headMin < req {
				pv := PaceViolation{Round: r, Phase: phase, HeadMin: headMin, Required: req}
				t.paceViolations++
				if t.cfg.Sink != nil {
					t.buf = AppendPaceJSON(t.buf, &pv)
					t.buf = append(t.buf, '\n')
				}
				if t.log != nil {
					t.log.Pace = append(t.log.Pace, pv)
				}
				if t.paceC != nil {
					t.paceC.Inc()
				}
				if t.cfg.OnPace != nil {
					t.cfg.OnPace(pv)
				}
			}
		}
	}
	if t.cfg.Sink != nil {
		t.writeBuf()
	}
	return first, redundant
}

// Maintenance implements sim.MaintenanceTracer: attribute one round of
// the self-stabilizing protocol's repair work and beacon budget to the
// ledger. The engine invokes it right after RoundStart, so maint records
// precede the round's arrive records and edges in the stream.
func (t *Tracer) Maintenance(r int, ms sim.MaintenanceStats) {
	t.elections += int64(ms.Elections)
	t.adoptions += int64(ms.Adoptions)
	t.headMerges += int64(ms.HeadMerges)
	t.maintBeac += int64(ms.BeaconsSent)
	rec := MaintRec{
		Round:     r,
		Elections: ms.Elections, Adoptions: ms.Adoptions,
		HeadMerges: ms.HeadMerges, Beacons: ms.BeaconsSent,
		Valid: ms.Valid, Reconverged: ms.Reconverged,
	}
	if t.cfg.Sink != nil {
		t.buf = AppendMaintJSON(t.buf, &rec)
		t.buf = append(t.buf, '\n')
	}
	if t.log != nil {
		t.log.Maint = append(t.log.Maint, rec)
	}
}

// arrInit lazily sizes the arrival-mode state: the initial batch occupies
// slots 0..k-1, born at round 0 with sequence numbers equal to their slots
// (matching the engine's arrState).
func (t *Tracer) arrInit() {
	if t.arrOn {
		return
	}
	t.arrOn = true
	t.born = make([]int, t.k)
	t.seqs = make([]int64, t.k)
	for s := 0; s < t.k; s++ {
		t.seqs[s] = int64(s)
		t.liveArr.Add(s)
	}
}

// Injected implements sim.ArrivalTracer: record the token's identity
// (generation-aware — a reused slot gets fresh born/seq), seed the target's
// known set so the injection itself is a DAG root rather than a
// first-delivery edge, and buffer the arrive record. It runs on the engine
// goroutine before the round's Send, so the records land in the stream
// ahead of the round's edges.
func (t *Tracer) Injected(r, v, tok int, seq int64) {
	t.arrInit()
	for tok >= len(t.born) {
		t.born = append(t.born, 0)
		t.seqs = append(t.seqs, int64(len(t.seqs)))
	}
	t.born[tok], t.seqs[tok] = r, seq
	t.liveArr.Add(tok)
	t.known[v].Add(tok)
	t.arrivals++
	rec := ArriveRec{Round: r, Node: v, Token: tok, Seq: seq}
	if t.cfg.Sink != nil {
		t.buf = AppendArriveJSON(t.buf, &rec)
		t.buf = append(t.buf, '\n')
	}
	if t.log != nil {
		t.log.Arrivals = append(t.log.Arrivals, rec)
	}
}

// Collected implements sim.ArrivalTracer: emit one collect record per
// garbage-collected slot (ascending, with latency), check each against the
// SLA deadline, and prune every node's known set — without the pruning a
// reused slot's next generation would diff as already-known and its
// dissemination would go untraced. Runs on the engine goroutine after
// RoundEnd, so collect records follow the round record they belong to.
func (t *Tracer) Collected(r int, gc *bitset.Set) {
	t.arrInit()
	gc.Range(func(tok int) bool {
		lat := r - t.born[tok]
		rec := CollectRec{Round: r, Token: tok, Seq: t.seqs[tok], Born: t.born[tok], Latency: lat}
		t.collectedTok++
		t.liveArr.Remove(tok)
		if t.cfg.Sink != nil {
			t.buf = AppendCollectJSON(t.buf, &rec)
			t.buf = append(t.buf, '\n')
		}
		if t.log != nil {
			t.log.Collections = append(t.log.Collections, rec)
		}
		if t.cfg.SLA > 0 && lat > t.cfg.SLA {
			t.slaViolation(r, tok, lat, false)
		}
		return true
	})
	for v := range t.known {
		t.known[v].DifferenceWith(gc)
	}
	if t.cfg.Sink != nil {
		t.writeBuf()
	}
}

// slaViolation emits one deadline miss through every configured channel.
func (t *Tracer) slaViolation(r, tok, lat int, outstanding bool) {
	pv := SLAViolation{
		Round: r, Token: tok, Seq: t.seqs[tok], Born: t.born[tok],
		Latency: lat, Outstanding: outstanding,
	}
	t.slaViolations++
	if t.cfg.Sink != nil {
		t.buf = AppendSLAJSON(t.buf, &pv)
		t.buf = append(t.buf, '\n')
	}
	if t.log != nil {
		t.log.SLA = append(t.log.SLA, pv)
	}
	if t.slaC != nil {
		t.slaC.Inc()
	}
	if t.cfg.OnSLA != nil {
		t.cfg.OnSLA(pv)
	}
}

// spillBytes bounds the encode buffer on busy rounds: RoundEnd writes it
// out whenever its edge records reach this size, so a round that teaches
// thousands of pairs keeps neither a large buffer nor a large write, and
// the bytes written do not change.
const spillBytes = 64 << 10

// writeBuf sends the encode buffer to the sink, latching the first error.
func (t *Tracer) writeBuf() {
	if t.err != nil || len(t.buf) == 0 {
		return
	}
	if _, err := t.cfg.Sink.Write(t.buf); err != nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// summary merges the per-shard sender accounts and builds the run summary.
func (t *Tracer) summary() *Summary {
	s := &Summary{
		First:           t.first,
		Redundant:       t.redundant,
		RedundantTokens: t.redTokens,
		RedundantByKind: t.redByKind,
		PaceViolations:  t.paceViolations,
		Arrivals:        t.arrivals,
		Collected:       t.collectedTok,
		SLAViolations:   t.slaViolations,
		Elections:       t.elections,
		Adoptions:       t.adoptions,
		HeadMerges:      t.headMerges,

		MaintenanceBeacons: t.maintBeac,
	}
	merged := make([]int64, t.n)
	for i := range t.shards {
		for v, c := range t.shards[i].redBySender {
			merged[v] += c
		}
	}
	for v, c := range merged {
		if c > 0 {
			s.BySender = append(s.BySender, SenderRedundancy{Node: v, Count: c})
		}
	}
	sort.SliceStable(s.BySender, func(i, j int) bool {
		if s.BySender[i].Count != s.BySender[j].Count {
			return s.BySender[i].Count > s.BySender[j].Count
		}
		return s.BySender[i].Node < s.BySender[j].Node
	})
	return s
}

// Flush finalises the stream: it emits the summary record (once) and
// reports the first sink write error, if any. Call it after sim.Run
// returns; the tracer is not reusable afterwards.
func (t *Tracer) Flush() error {
	if !t.flushed {
		t.flushed = true
		// Age the still-outstanding tokens against the SLA deadline: a run
		// that ended (MaxRounds, stall) with overdue tokens in flight is a
		// deadline miss even though no collect record will ever say so.
		if t.cfg.SLA > 0 && t.arrOn {
			t.liveArr.Range(func(tok int) bool {
				if lat := t.round - t.born[tok]; lat > t.cfg.SLA {
					t.slaViolation(t.round, tok, lat, true)
				}
				return true
			})
		}
		s := t.summary()
		if t.log != nil {
			t.log.Summary = s
		}
		if t.cfg.Sink != nil {
			t.buf = AppendSummaryJSON(t.buf[:0], s)
			t.buf = append(t.buf, '\n')
			t.writeBuf()
		}
	}
	return t.err
}

// Log returns the retained log (Config.Keep only; nil otherwise). It
// finalises the summary if Flush has not run yet.
func (t *Tracer) Log() *Log {
	if t.log != nil && t.log.Summary == nil {
		_ = t.Flush()
	}
	return t.log
}

// PaceViolations returns the number of pace warnings emitted so far.
func (t *Tracer) PaceViolations() int { return t.paceViolations }

// SLAViolationCount returns the number of deadline misses recorded so far
// (outstanding-at-end misses are only counted once Flush runs).
func (t *Tracer) SLAViolationCount() int { return t.slaViolations }

var (
	_ sim.Tracer            = (*Tracer)(nil)
	_ sim.ArrivalTracer     = (*Tracer)(nil)
	_ sim.MaintenanceTracer = (*Tracer)(nil)
)
