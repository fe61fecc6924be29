package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// RunGrid must be a pure scheduling change: the same points run through the
// shared cross-seed pool must aggregate to exactly the RowResults the
// sequential RunPoint path produces, in the same order. The second point's
// health rules are shared by every replication, and the rows that no
// Theorem 1 budget governs drop their pace rule concurrently (make race).
func TestRunGridMatchesRunPoint(t *testing.T) {
	cfgs := []PointConfig{Table3Config(2), func() PointConfig {
		c := Table3Config(2)
		c.P.K = 4
		c.HealthRules = "pace,stall>=50"
		return c
	}()}

	var want [][]RowResult
	for _, cfg := range cfgs {
		rows, err := RunPoint(cfg)
		if err != nil {
			t.Fatalf("RunPoint: %v", err)
		}
		want = append(want, rows)
	}
	for _, workers := range []int{1, 4} {
		got, err := RunGrid(cfgs, workers)
		if err != nil {
			t.Fatalf("RunGrid(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RunGrid(workers=%d) diverges from sequential RunPoint results", workers)
		}
	}
}

// Per-seed artifact files must land in the same places with the same names
// under RunGrid as under RunPoint.
func TestRunGridWritesPerSeedFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Table3Config(2)
	cfg.MetricsDir = filepath.Join(dir, "obs")
	cfg.ProvenanceDir = filepath.Join(dir, "prov")
	if _, err := RunGrid([]PointConfig{cfg}, 2); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	for _, f := range []string{
		"obs/klo_t_seed00.jsonl", "obs/alg1_seed01.jsonl",
		"obs/flood_seed00.jsonl", "obs/alg2_seed01.jsonl",
		"prov/alg1_seed00.prov.jsonl", "prov/alg2_seed01.prov.jsonl",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("expected artifact %s: %v", f, err)
		}
	}
}
