package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRunPointClosesFilesOnSinkError fills the disk under one
// replication's metrics file. RunPoint must report the write error, and
// that replication must still flush and close its provenance and timing
// files: no descriptor stays open and both files end in a complete line.
func TestRunPointClosesFilesOnSinkError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this system")
		}
		return len(ents)
	}
	run := func() string {
		dir := t.TempDir()
		if err := os.Symlink("/dev/full", filepath.Join(dir, "klo_t_seed00.jsonl")); err != nil {
			t.Fatal(err)
		}
		cfg := Table3Config(1)
		cfg.Workers = 1
		cfg.MetricsDir, cfg.ProvenanceDir, cfg.TimingDir = dir, dir, dir
		if _, err := RunPoint(cfg); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("RunPoint returned %v, want the metrics file's ENOSPC", err)
		}
		return dir
	}
	// The first run may leave descriptors the runtime keeps for good (its
	// poller), so count across the second.
	run()
	before := fds()
	dir := run()
	if after := fds(); after != before {
		t.Errorf("open descriptors %d before a failed RunPoint, %d after", before, after)
	}
	for _, f := range []struct{ name, last string }{
		{"klo_t_seed00.prov.jsonl", `{"t":"summary"`},
		{"klo_t_seed00.timing.jsonl", `{`},
	} {
		b, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Fatalf("%s (%d bytes) does not end in a complete line", f.name, len(b))
		}
		lines := bytes.Split(b[:len(b)-1], []byte("\n"))
		for i, line := range lines {
			if !json.Valid(line) {
				t.Fatalf("%s line %d is not JSON: %.80s", f.name, i+1, line)
			}
		}
		if last := lines[len(lines)-1]; !bytes.HasPrefix(last, []byte(f.last)) {
			t.Fatalf("%s ends in %.80s, want a record starting %s", f.name, last, f.last)
		}
	}
}
