package provenance

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Two logs whose edges form a cycle: node 1 taught itself, or nodes 1 and 2
// taught each other. No initial holder starts either chain.
const (
	logMeta       = `{"t":"meta","n":3,"k":1,"phase_len":0,"phases":0,"alpha":0,"theta":0,"holders":[[0]]}` + "\n"
	selfTaughtLog = logMeta +
		`{"t":"edge","round":0,"token":0,"learner":1,"teacher":1,"kind":"broadcast","role":"member","cluster":0}` + "\n"
	twoCycleLog = logMeta +
		`{"t":"edge","round":0,"token":0,"learner":1,"teacher":2,"kind":"broadcast","role":"member","cluster":0}` + "\n" +
		`{"t":"edge","round":1,"token":0,"learner":2,"teacher":1,"kind":"broadcast","role":"member","cluster":0}` + "\n"
)

// TestLineageStopsOnCycles: a walk back through teachers that revisits a
// node reports the pair as not acquired, and the critical-path queries
// built on it return. A walk that never ends grows its chain without
// bound, so the test panics after a second rather than wait for the test
// timeout.
func TestLineageStopsOnCycles(t *testing.T) {
	for name, raw := range map[string]string{"self-taught": selfTaughtLog, "two-node cycle": twoCycleLog} {
		t.Run(name, func(t *testing.T) {
			log, err := ParseLog(strings.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if chain, ok := log.Lineage(1, 0); ok || chain != nil {
					t.Errorf("Lineage(1, 0) = %v, %v; want nil, false", chain, ok)
				}
				if _, ok := log.TokenCritical(0); ok {
					t.Error("TokenCritical(0) found a path")
				}
				if paths := log.AllCritical(); len(paths) != 0 {
					t.Errorf("AllCritical() = %v; want none", paths)
				}
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				panic("Lineage did not return on a cyclic log")
			}
		})
	}
}

// FuzzParseLog feeds ParseLog arbitrary bytes. It must never panic, and
// for any log it accepts, every chain that Lineage, AllCritical and Depths
// report is no longer than the log's edge list.
func FuzzParseLog(f *testing.F) {
	raw, _, _ := tracedRun(f, 7, 1, core.Alg1{T: tT}, nil, false)
	f.Add(raw)
	f.Add([]byte(selfTaughtLog))
	f.Add([]byte(twoCycleLog))
	f.Add([]byte(`{"t":"meta","k":1000000000000}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ParseLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		max := len(log.Edges)
		for _, e := range log.Edges {
			if chain, ok := log.Lineage(e.Learner, e.Token); ok && len(chain) > max {
				t.Fatalf("Lineage(%d, %d) has %d hops for %d edges", e.Learner, e.Token, len(chain), max)
			}
		}
		for _, p := range log.AllCritical() {
			if len(p.Edges) > max {
				t.Fatalf("critical path of token %d has %d hops for %d edges", p.Token, len(p.Edges), max)
			}
		}
		for i, d := range log.Depths() {
			if d > max {
				t.Fatalf("edge %d has depth %d for %d edges", i, d, max)
			}
		}
	})
}
