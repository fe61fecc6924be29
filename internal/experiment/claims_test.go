package experiment

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestClaimsLedgerConsistent(t *testing.T) {
	if err := VerifyCheapClaims(); err != nil {
		t.Fatal(err)
	}
	claims := Claims()
	if len(claims) < 10 {
		t.Fatalf("ledger shrank to %d claims", len(claims))
	}
	seen := map[string]bool{}
	valid := map[ClaimStatus]bool{
		StatusExact: true, StatusHolds: true, StatusShape: true,
		StatusDiscrepancy: true, StatusFails: true,
	}
	for _, c := range claims {
		if seen[c.ID] {
			t.Fatalf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
		if !valid[c.Status] {
			t.Fatalf("claim %q has invalid status %q", c.ID, c.Status)
		}
		if c.Statement == "" || c.Evidence == "" || c.Source == "" {
			t.Fatalf("claim %q incomplete", c.ID)
		}
	}
	// The two known deviations must be recorded.
	if !seen["T3-alg2"] || !seen["THM3"] {
		t.Fatal("known deviations missing from ledger")
	}
}

func TestClaimsTable(t *testing.T) {
	out := ClaimsTable().String()
	for _, want := range []string{"THM1", "fails", "exact", "discrepancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("claims table missing %q:\n%s", want, out)
		}
	}
}

// TestClaimsEvidenceExists holds every Evidence field to the repository:
// each cited Test or Benchmark must be declared in some _test.go file of
// the module, each cited internal/, examples/ or cmd/ path must exist, and
// each flag of a cited hinetbench command must be one cmd/hinetbench
// defines. A renamed test or a deleted program then fails here instead of
// leaving a claim without evidence.
func TestClaimsEvidenceExists(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	main, err := os.ReadFile(filepath.Join(root, "cmd", "hinetbench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([^"]+)"`).FindAllSubmatch(main, -1) {
		flags[string(m[1])] = true
	}
	if len(declared) == 0 || len(flags) == 0 {
		t.Fatalf("found %d test declarations and %d hinetbench flags; the scans are broken", len(declared), len(flags))
	}

	testRe := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9_]\w*`)
	pathRe := regexp.MustCompile(`\b(?:internal|examples|cmd)/[\w./-]*\w`)
	cmdRe := regexp.MustCompile(`hinetbench((?:\s+-[\w-]+(?:\s+[\w.,]+)?)+)`)
	flagRe := regexp.MustCompile(`\s-([\w-]+)`)
	for _, c := range Claims() {
		for _, name := range testRe.FindAllString(c.Evidence, -1) {
			if !declared[name] {
				t.Errorf("claim %s cites %s, which no _test.go file declares", c.ID, name)
			}
		}
		for _, p := range pathRe.FindAllString(c.Evidence, -1) {
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				t.Errorf("claim %s cites %s, which does not exist", c.ID, p)
			}
		}
		for _, m := range cmdRe.FindAllStringSubmatch(c.Evidence, -1) {
			for _, f := range flagRe.FindAllStringSubmatch(m[1], -1) {
				if !flags[f[1]] {
					t.Errorf("claim %s cites hinetbench -%s, which cmd/hinetbench does not define", c.ID, f[1])
				}
			}
		}
	}
}
