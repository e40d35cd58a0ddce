package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden expected.json files")

// TestGolden pins the full pipeline output — parse, correlate, decompose,
// JSON export — byte for byte against checked-in log trees produced by
// real simulator runs (cmd/gencorpus): a pristine run and one with node
// crashes. Regenerate expectations with `go test ./internal/core -run
// TestGolden -update` and review the diff like any other code change.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "golden")
	cases, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading golden cases: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("no golden cases; run `go run ./cmd/gencorpus`")
	}
	for _, c := range cases {
		t.Run(c.Name(), func(t *testing.T) {
			ck := New()
			if err := ck.AddDir(filepath.Join(root, c.Name(), "input")); err != nil {
				t.Fatalf("AddDir: %v", err)
			}
			rep := ck.Analyze()
			got, err := rep.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			expPath := filepath.Join(root, c.Name(), "expected.json")
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
				t.Errorf("%s: JSON output drifted from golden file; rerun with -update and review the diff", c.Name())
			}
			// The report is a function of the parser output, and the JSON
			// carries no warnings, so the reference miner reaches the same
			// golden bytes exactly when it agrees with the fast parser on
			// every input file.
			for _, f := range goldenTreeFiles(t, filepath.Join(root, c.Name(), "input")) {
				diffParsers(t, f.source, []byte(f.raw))
			}
			// The parallel miner must hit the same goldens byte for byte
			// at any worker count.
			for _, w := range []int{1, 2, 5} {
				prep, err := MineDir(filepath.Join(root, c.Name(), "input"), w)
				if err != nil {
					t.Fatalf("MineDir(workers=%d): %v", w, err)
				}
				pgot, err := prep.JSON()
				if err != nil {
					t.Fatalf("parallel JSON (workers=%d): %v", w, err)
				}
				if !bytes.Equal([]byte(pgot+"\n"), want) {
					t.Errorf("%s: MineDir(workers=%d) JSON diverges from golden file", c.Name(), w)
				}
			}
			// The faulted tree must mine into flagged partial
			// decompositions, never silently complete ones.
			if c.Name() == "faulted" {
				if !strings.Contains(got, `"complete": false`) {
					t.Error("faulted golden case has no partial decomposition")
				}
				if !strings.Contains(got, "lost to node failure") {
					t.Error("faulted golden case lists no lost-container anomaly")
				}
				if !strings.Contains(got, `"lost_ms"`) {
					t.Error("faulted golden case records no container loss timestamps")
				}
			}
		})
	}
}
