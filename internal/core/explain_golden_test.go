package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExplainGolden pins the /explain wire format byte for byte against
// the checked-in golden log trees: for each case, the total-delay
// attribution report at p0.99 with every exemplar enriched from the
// mined report itself. Regenerate with `go test ./internal/core -run
// TestExplainGolden -update` and review the diff like any other code
// change.
func TestExplainGolden(t *testing.T) {
	root := filepath.Join("testdata", "golden")
	cases, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading golden cases: %v", err)
	}
	for _, c := range cases {
		t.Run(c.Name(), func(t *testing.T) {
			ck := New()
			if err := ck.AddDir(filepath.Join(root, c.Name(), "input")); err != nil {
				t.Fatalf("AddDir: %v", err)
			}
			rep := ck.Analyze()
			apps := make(map[string]*AppTrace, len(rep.Apps))
			for _, a := range rep.Apps {
				apps[a.ID.String()] = a
			}
			doc := rep.Breakdown().Explain("total", 0.99, DefaultExplainCells, func(app string) (*AppSummary, bool) {
				if a := apps[app]; a != nil {
					return SummarizeApp(a), false
				}
				return nil, false
			})
			got, err := doc.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			expPath := filepath.Join(root, c.Name(), "expected_explain.json")
			if *updateGolden {
				if err := os.WriteFile(expPath, []byte(got+"\n"), 0o644); err != nil {
					t.Fatalf("writing %s: %v", expPath, err)
				}
				return
			}
			want, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("reading %s (run with -update to create): %v", expPath, err)
			}
			if !bytes.Equal([]byte(got+"\n"), want) {
				t.Errorf("%s: explain output drifted from golden file; rerun with -update and review the diff", c.Name())
			}
			// The parallel miner must render the same explain report.
			for _, w := range []int{1, 2, 5} {
				prep, err := MineDir(filepath.Join(root, c.Name(), "input"), w)
				if err != nil {
					t.Fatalf("MineDir(workers=%d): %v", w, err)
				}
				papps := make(map[string]*AppTrace, len(prep.Apps))
				for _, a := range prep.Apps {
					papps[a.ID.String()] = a
				}
				pdoc := prep.Breakdown().Explain("total", 0.99, DefaultExplainCells, func(app string) (*AppSummary, bool) {
					if a := papps[app]; a != nil {
						return SummarizeApp(a), false
					}
					return nil, false
				})
				pgot, err := pdoc.JSON()
				if err != nil {
					t.Fatalf("parallel explain JSON (workers=%d): %v", w, err)
				}
				if !bytes.Equal([]byte(pgot+"\n"), want) {
					t.Errorf("%s: MineDir(workers=%d) explain diverges from golden file", c.Name(), w)
				}
			}
		})
	}
}
