// Package recorder is the engine's flight recorder: a bounded ring of the
// last N rounds of full-fidelity observability — round events, barrier
// Metrics snapshots, stage timings when timing is attached — kept in
// memory regardless of whether any sink is wired, so a multi-hour run that
// goes wrong at round 40k can dump exactly the window that matters instead
// of either nothing (sinks off) or gigabytes (sinks on).
//
// The recorder wraps an obs.Collector (it owns one, built from Config.Obs)
// and feeds on its OnEvent hook, so it sees the same normalised, shard-
// merged events as the JSONL stream and inherits the engine's
// serial-vs-parallel determinism: ring contents, and therefore dump
// bundles, are byte-identical across Options.Workers (timing sections
// excepted — wall clocks are not deterministic).
//
// Anomalies — the stall watchdog, convergence-watchdog divergence, online
// health-rule breaches (internal/obs/health), and externally signalled
// triggers such as the provenance pace checker — each queue a postmortem
// dump: ring contents + latest Metrics + active fault plan + config
// fingerprint + health verdicts, written once per distinct reason to
// Config.DumpDir as `<prefix>-r<round>-<reason>.dump`. `hinettrace
// postmortem` renders a diagnosis from the bundle.
//
// Open is how a run attaches its sinks: the collector or the recorder that
// owns it, the stage-timing sink and the provenance tracer, each with the
// file behind it (see Sinks).
package recorder

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/sim"
)

// DefaultDepth is the ring capacity (rounds) when Config.Depth is zero.
const DefaultDepth = 512

// Config parameterises a Recorder.
type Config struct {
	// Obs configures the inner obs.Collector (sink, registry, Keep, ...).
	// Its OnEvent hook is chained: the recorder records first, then calls
	// the configured hook.
	Obs obs.Config
	// Depth is the ring capacity in rounds (DefaultDepth when 0).
	Depth int
	// Rules is the online health-rule set (internal/obs/health); empty
	// means no health engine. Alpha is the Theorem-1 progress coefficient
	// for the pace rule.
	Rules []health.Rule
	Alpha int
	// OnViolation, if set, is chained after the recorder's own
	// dump-trigger handling of each health breach.
	OnViolation func(health.Violation)
	// DumpDir is where anomaly bundles are written; empty disables
	// dumping (triggers still mark the run unhealthy).
	DumpDir string
	// Prefix names bundle files, `<prefix>-r<round>-<reason>.dump`
	// ("run" when empty).
	Prefix string
	// Fingerprint identifies the run configuration in bundles (flag
	// values, scenario name, seed, worker count...). Keys are emitted
	// sorted, so equal fingerprints encode to equal bytes.
	Fingerprint map[string]string
	// FaultPlan, if non-nil, is embedded in bundles so a postmortem shows
	// what adversity was configured.
	FaultPlan *faults.Plan
}

// timingRow is one ring slot's stage-timing record.
type timingRow struct {
	round int
	wall  [sim.NumStages]int64
	shard [][sim.NumStages]int64
}

// Recorder is the flight recorder for one run. It is driven from the
// engine goroutine via Observer() and (optionally) TimingSink(); Status,
// Bundles, Events and the HTTP handlers may be called concurrently.
type Recorder struct {
	cfg    Config
	col    *obs.Collector
	colObs sim.Observer
	hea    *health.Engine
	chain  func(*obs.RoundEvent)
	closed bool

	mu     sync.Mutex
	ring   []obs.RoundEvent
	timing []timingRow
	timed  bool // a TimingSink tee's run has started
	head   int  // next ring slot to overwrite
	n      int  // filled slots
	met    sim.Metrics
	last   obs.RoundEvent // shallow copy of the newest event (status surface)
	have   bool

	pending []dumpReq
	dumped  map[string]bool
	bundles []string
	dumpErr error
}

type dumpReq struct {
	reason string
	round  int
}

// New builds a recorder (and its inner collector and health engine) for
// one run.
func New(cfg Config) *Recorder {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "run"
	}
	rec := &Recorder{
		cfg:    cfg,
		ring:   make([]obs.RoundEvent, cfg.Depth),
		timing: make([]timingRow, cfg.Depth),
		dumped: map[string]bool{},
		chain:  cfg.Obs.OnEvent,
	}
	rec.hea = health.New(health.Config{
		Rules:    cfg.Rules,
		N:        cfg.Obs.N,
		K:        cfg.Obs.K,
		PhaseLen: cfg.Obs.PhaseLen,
		Alpha:    cfg.Alpha,
		Arrivals: cfg.Obs.Arrivals,
		Registry: cfg.Obs.Registry,
		OnViolation: func(v health.Violation) {
			rec.Trigger(v.Rule, v.Round)
			if cfg.OnViolation != nil {
				cfg.OnViolation(v)
			}
		},
	})
	inner := cfg.Obs
	inner.OnEvent = rec.record
	rec.col = obs.NewCollector(inner)
	rec.colObs = rec.col.Observer()
	return rec
}

// Collector returns the inner collector (for Events, LatencyQuantile...).
func (rec *Recorder) Collector() *obs.Collector { return rec.col }

// Health returns the online health engine, nil when no rules were
// configured.
func (rec *Recorder) Health() *health.Engine { return rec.hea }

// Observer returns the sim.Observer feeding this recorder. It snapshots
// the round's Metrics, feeds the health engine's latency and conservation
// rules, and hands the record to the inner collector, whose event lands in
// the ring.
func (rec *Recorder) Observer() sim.Observer { return rec.observe }

func (rec *Recorder) observe(rd *sim.Round) {
	if rd.Diverged != nil {
		rec.Trigger("divergence", rd.R)
	}
	for _, t := range rd.Collected {
		rec.hea.ObserveLatency(rd.R - t.Born)
	}
	rec.mu.Lock()
	rec.met = *rd.Metrics
	rec.mu.Unlock()
	rec.hea.ObserveMetrics(rd.R, rd.Metrics)
	rec.colObs(rd)
}

// TimingSink returns a sim.TimingSink that records per-round stage wall
// times (and per-shard splits) into the ring and feeds the health
// engine's stage-regression rule, then forwards to inner (which may be
// nil — the recorder alone is a valid sink).
func (rec *Recorder) TimingSink(inner sim.TimingSink) sim.TimingSink {
	return &timingTee{rec: rec, inner: inner}
}

type timingTee struct {
	rec   *Recorder
	inner sim.TimingSink
}

func (t *timingTee) RunStart(nshards int) {
	t.rec.mu.Lock()
	t.rec.timed = true
	t.rec.mu.Unlock()
	if t.inner != nil {
		t.inner.RunStart(nshards)
	}
}

func (t *timingTee) RoundEnd(r int, wall *[sim.NumStages]int64, shard [][sim.NumStages]int64) {
	rec := t.rec
	rec.mu.Lock()
	// Timing rows land in the same slot layout as events: the engine hands
	// round r's record to the observer before RoundEnd(r), so the row goes
	// to the slot record() just filled.
	row := &rec.timing[(rec.head+len(rec.ring)-1)%len(rec.ring)]
	row.round = r
	row.wall = *wall
	row.shard = row.shard[:0]
	for _, s := range shard {
		row.shard = append(row.shard, s)
	}
	rec.mu.Unlock()
	rec.hea.RoundTiming(r, wall)
	// Round r's data is complete only now, so bundles triggered in it are
	// written here rather than in record().
	rec.flushPending()
	if t.inner != nil {
		t.inner.RoundEnd(r, wall, shard)
	}
}

func (t *timingTee) SampleArena(r int) bool {
	if t.inner != nil {
		return t.inner.SampleArena(r)
	}
	return false
}

func (t *timingTee) Arena(r int, msgs, sets int, setBytes int64) {
	if t.inner != nil {
		t.inner.Arena(r, msgs, sets, setBytes)
	}
}

// record is the inner collector's OnEvent hook: deep-copy the finalized
// event into the ring, judge health, trigger/flush dumps, forward.
func (rec *Recorder) record(ev *obs.RoundEvent) {
	rec.mu.Lock()
	slot := &rec.ring[rec.head]
	crashed := append(slot.Crashed[:0], ev.Crashed...)
	recovered := append(slot.Recovered[:0], ev.Recovered...)
	*slot = *ev
	slot.Crashed = crashed
	slot.Recovered = recovered
	rec.head = (rec.head + 1) % len(rec.ring)
	if rec.n < len(rec.ring) {
		rec.n++
	}
	rec.last = *ev
	rec.have = true
	timed := rec.timed
	rec.mu.Unlock()

	rec.hea.Observe(ev)
	if ev.Stalled {
		rec.Trigger("stall", ev.Round)
	}
	if !timed {
		rec.flushPending()
	}
	if rec.chain != nil {
		rec.chain(ev)
	}
}

// Trigger queues a postmortem dump for reason (e.g. "pace" from the
// provenance checker's OnPace callback). Each distinct reason dumps at
// most once per run; the bundle is written when the data for the
// triggering round is complete (once its event, and with a timing tee its
// timing row, is recorded, or at Close).
// Safe from the engine goroutine; round is the round the anomaly was
// observed at.
func (rec *Recorder) Trigger(reason string, round int) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.dumped[reason] {
		return
	}
	rec.dumped[reason] = true
	rec.pending = append(rec.pending, dumpReq{reason: reason, round: round})
}

// flushPending writes queued bundles. Called with data complete for every
// queued round (after record, or at Close).
func (rec *Recorder) flushPending() {
	rec.mu.Lock()
	pending := rec.pending
	rec.pending = nil
	rec.mu.Unlock()
	for _, req := range pending {
		if rec.cfg.DumpDir == "" {
			continue
		}
		path, err := rec.writeBundle(req)
		rec.mu.Lock()
		if err != nil {
			if rec.dumpErr == nil {
				rec.dumpErr = err
			}
		} else {
			rec.bundles = append(rec.bundles, path)
		}
		rec.mu.Unlock()
	}
}

// events returns the ring contents oldest→newest. Callers hold rec.mu.
func (rec *Recorder) eventsLocked() []*obs.RoundEvent {
	out := make([]*obs.RoundEvent, 0, rec.n)
	start := rec.head - rec.n
	if start < 0 {
		start += len(rec.ring)
	}
	for i := 0; i < rec.n; i++ {
		out = append(out, &rec.ring[(start+i)%len(rec.ring)])
	}
	return out
}

// Events snapshots the ring contents, oldest first. The returned events
// are deep copies and safe to retain.
func (rec *Recorder) Events() []obs.RoundEvent {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	evs := rec.eventsLocked()
	out := make([]obs.RoundEvent, len(evs))
	for i, e := range evs {
		out[i] = *e
		out[i].Crashed = append([]int(nil), e.Crashed...)
		out[i].Recovered = append([]int(nil), e.Recovered...)
	}
	return out
}

// Close flushes the inner collector, writes any still-pending bundles, and
// returns the first error among sink writes and bundle writes.
func (rec *Recorder) Close() error {
	if rec.closed {
		return rec.Err()
	}
	rec.closed = true
	ferr := rec.col.Flush()
	rec.flushPending()
	if ferr != nil {
		return ferr
	}
	return rec.Err()
}

// Err returns the first dump-write error, if any (sink errors surface
// through Close / the inner collector's Err).
func (rec *Recorder) Err() error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.dumpErr
}

// Bundles lists the postmortem bundle paths written so far.
func (rec *Recorder) Bundles() []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]string(nil), rec.bundles...)
}

// Status is a point-in-time summary of the run for the /statusz and
// /healthz surfaces.
type Status struct {
	// Round / Phase are the newest fully recorded round.
	Round int `json:"round"`
	Phase int `json:"phase"`
	// Delivered / Total / Outstanding / Stall mirror that round's event.
	Delivered   int  `json:"delivered"`
	Total       int  `json:"total"`
	Outstanding int  `json:"outstanding"`
	Stall       int  `json:"stall"`
	Stalled     bool `json:"stalled"`
	// RingLen / RingCap are the flight-recorder occupancy.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// Healthy / Violations summarise the health engine; Rules carries
	// each rule's running verdict.
	Healthy    bool           `json:"healthy"`
	Violations int            `json:"violations"`
	Rules      []health.State `json:"rules,omitempty"`
	// Bundles lists postmortem dumps written so far.
	Bundles []string `json:"bundles,omitempty"`
}

// Status snapshots the run state. Safe to call concurrently with the run.
func (rec *Recorder) Status() Status {
	rec.mu.Lock()
	st := Status{
		Round:       rec.last.Round,
		Phase:       rec.last.Phase,
		Delivered:   rec.last.Delivered,
		Total:       rec.last.Total,
		Outstanding: rec.last.Outstanding,
		Stall:       rec.last.Stall,
		Stalled:     rec.last.Stalled,
		RingLen:     rec.n,
		RingCap:     len(rec.ring),
		Bundles:     append([]string(nil), rec.bundles...),
	}
	if !rec.have {
		st.Round = -1
	}
	rec.mu.Unlock()
	st.Healthy = rec.hea.Healthy()
	st.Violations = rec.hea.Violations()
	st.Rules = rec.hea.States()
	return st
}

// bundleName renders the deterministic bundle filename for req.
func (rec *Recorder) bundleName(req dumpReq) string {
	return fmt.Sprintf("%s-r%d-%s.dump", rec.cfg.Prefix, req.round, req.reason)
}
