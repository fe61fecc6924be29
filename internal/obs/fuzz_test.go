package obs

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// FuzzParseEvents feeds ParseEvents arbitrary bytes. It must never panic,
// and for any stream it accepts, encoding the parsed events with AppendJSON
// and parsing that again must give back the same bytes.
func FuzzParseEvents(f *testing.F) {
	raw, _, _ := runCollected(f, testTrace(f, 16, 24, 6), 3, 6, 0, nil)
	f.Add(raw)
	f.Add([]byte(`{"round":3,"crashed":[2,1],"msgs_by_kind":{"relay":4}}`))
	f.Add([]byte("{}\n{}"))
	f.Add([]byte(`{"round":1e400}`))
	f.Add([]byte(""))
	encode := func(evs []RoundEvent) []byte {
		var b []byte
		for i := range evs {
			b = append(evs[i].AppendJSON(b), '\n')
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ParseEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encode(evs)
		again, err := ParseEvents(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded stream does not parse: %v\n%s", err, once)
		}
		if twice := encode(again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once, twice)
		}
	})
}

// FuzzParseTiming feeds ParseTiming arbitrary bytes. It must never panic,
// and SummarizeTiming must give one breakdown row per stage for any series
// it accepts.
func FuzzParseTiming(f *testing.F) {
	raw, _, _ := runTimed(f, testTrace(f, 16, 24, 6), 3, 6, 2, TimingConfig{SampleEvery: 8})
	f.Add(raw)
	f.Add([]byte(`{"round":3,"wall":{"collect":5},"res":null}`))
	f.Add([]byte(`{"round":1}{"wall":{"deliver":-1}}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseTiming(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := len(SummarizeTiming(rows)); got != int(sim.NumStages) {
			t.Fatalf("%d breakdown rows, want %d", got, sim.NumStages)
		}
	})
}
