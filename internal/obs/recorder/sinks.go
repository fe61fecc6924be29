package recorder

import (
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/provenance"
	"repro/internal/sim"
)

// SinkConfig names a run's output files and configures the sink behind
// each. An empty path leaves its file unwritten; Open creates each named
// file, and its directory when missing.
type SinkConfig struct {
	// MetricsPath receives the per-round JSONL events (internal/obs),
	// ProvenancePath the provenance stream (internal/provenance) and
	// TimingPath the per-round stage spans (obs.Timing).
	MetricsPath, ProvenancePath, TimingPath string
	// Recorder configures the collector through Recorder.Obs, and the
	// flight recorder that owns it when Depth, Rules or DumpDir is set.
	// Open sets Obs.Sink, Obs.Arrivals, Alpha and FaultPlan.
	Recorder Config
	// Provenance configures the tracer. Its Budget is the Theorem 1
	// schedule that governs the run, nil when none does; it also decides
	// whether the health pace rule is kept. Open sets Sink.
	Provenance provenance.Config
	// Timing configures the stage-timing sink; Open sets Sink.
	Timing obs.TimingConfig
}

// Sinks is one run's observability sinks and the files behind them. Each
// sink is nil when the run does not attach it.
type Sinks struct {
	// Collector derives the per-round events. It attaches when a metrics
	// file, the flight recorder, a registry or Keep reads it.
	Collector *obs.Collector
	// Recorder is the flight recorder, which owns Collector.
	Recorder *Recorder
	// Timing attaches with a timing file.
	Timing *obs.Timing
	// Tracer attaches with a provenance file, Keep or an SLA.
	Tracer *provenance.Tracer
	files  []*os.File
}

// Open creates cfg's files and attaches its sinks to opts. The collector,
// or the flight recorder that owns it, joins opts.Observer after any
// observer already there; with the recorder on, stage timings are teed
// into its ring on their way to the timing sink. Without a Budget the
// health pace rule is dropped: Theorem 1's schedule governs Algorithm 1
// only. On error Open closes whatever it opened.
func Open(cfg SinkConfig, opts *sim.Options) (Sinks, error) {
	var s Sinks
	rc := cfg.Recorder
	recording := rc.Depth > 0 || len(rc.Rules) > 0 || rc.DumpDir != ""
	if b := cfg.Provenance.Budget; b != nil {
		rc.Alpha = b.Alpha
	} else {
		rc.Rules = withoutPace(rc.Rules)
	}
	rc.FaultPlan = opts.Faults
	rc.Obs.Arrivals = opts.Arrivals != nil
	var err error
	if cfg.MetricsPath != "" || recording || rc.Obs.Registry != nil || rc.Obs.Keep {
		if rc.Obs.Sink, err = s.create(cfg.MetricsPath); err != nil {
			return Sinks{}, err
		}
		if recording {
			s.Recorder = New(rc)
			s.Collector = s.Recorder.Collector()
			opts.Observer = obs.Combine(opts.Observer, s.Recorder.Observer())
		} else {
			s.Collector = obs.NewCollector(rc.Obs)
			opts.Observer = obs.Combine(opts.Observer, s.Collector.Observer())
		}
	}
	if pc := cfg.Provenance; cfg.ProvenancePath != "" || pc.Keep || pc.SLA > 0 {
		if pc.Sink, err = s.create(cfg.ProvenancePath); err != nil {
			return Sinks{}, err
		}
		s.Tracer = provenance.New(pc)
		opts.Tracer = s.Tracer
	}
	if tc := cfg.Timing; cfg.TimingPath != "" {
		if tc.Sink, err = s.create(cfg.TimingPath); err != nil {
			return Sinks{}, err
		}
		s.Timing = obs.NewTiming(tc)
		opts.Timing = s.Timing
		if s.Recorder != nil {
			opts.Timing = s.Recorder.TimingSink(s.Timing)
		}
	}
	return s, nil
}

// create makes path and its directory, a nil writer for an empty path. On
// error it closes the files s already holds.
func (s *Sinks) create(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.files = append(s.files, f)
	return f, nil
}

// withoutPace returns rules less the pace rule in a new slice, so rules
// shared between concurrent runs are never written.
func withoutPace(rules []health.Rule) []health.Rule {
	kept := rules[:0:0]
	for _, r := range rules {
		if r.Kind != health.KindPace {
			kept = append(kept, r)
		}
	}
	return kept
}

// Close flushes every sink and closes every file, whichever of them
// fails, and returns the first error.
func (s *Sinks) Close() error {
	return s.finish((*os.File).Close)
}

// Sync flushes every sink and commits every file to stable storage,
// whichever of them fails, and returns the first error: a write that a
// full or remote disk defers surfaces before the run reports its files.
// Close still follows.
func (s *Sinks) Sync() error {
	return s.finish((*os.File).Sync)
}

// finish flushes every sink, then applies done to every file, and
// returns the first error.
func (s *Sinks) finish(done func(*os.File) error) error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if s.Recorder != nil {
		keep(s.Recorder.Close())
	} else if s.Collector != nil {
		keep(s.Collector.Flush())
	}
	if s.Tracer != nil {
		keep(s.Tracer.Flush())
	}
	if s.Timing != nil {
		keep(s.Timing.Flush())
	}
	for _, f := range s.files {
		keep(done(f))
	}
	return err
}
