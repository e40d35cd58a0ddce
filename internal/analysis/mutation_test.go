package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file is the suite's mutation self-test: each case copies an
// analyzer's good fixture into a scratch package, seeds one defect a
// human plausibly introduces (a deleted clone, a drifted transition
// edge, an unaccounted goroutine, a gutted manifest), and requires the
// analyzer to report it. A detector that cannot re-find a seeded defect
// is decoration, not a proof.

// copyTree copies every non-test .go and .json file under src into dst,
// preserving relative paths, and registers cleanup of dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	t.Cleanup(func() { os.RemoveAll(dst) })
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		name := e.Name()
		if strings.HasSuffix(name, "_test.go") ||
			(!strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".json")) {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutateFile replaces old with new in one file, requiring exactly one
// occurrence so a fixture edit cannot silently defuse a mutant.
func mutateFile(t *testing.T, path, old, new string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), old); n != 1 {
		t.Fatalf("%s: mutation anchor occurs %d times, want 1:\n%s", path, n, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(raw), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runScratch loads one scratch subtree of an analyzer's fixture area and
// runs that analyzer (with an optional ownership-manifest override).
func runScratch(t *testing.T, a *Analyzer, sub, ownershipPath string) []Finding {
	t.Helper()
	rel := filepath.Join("testdata", "src", a.Name, sub)
	prog, err := Load("../..", "./internal/analysis/"+filepath.ToSlash(rel)+"/...")
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	unit := &Unit{Prog: prog, Analyzers: []*Analyzer{a}, OwnershipPath: ownershipPath}
	return unit.Run()
}

type mutCase struct {
	name     string
	analyzer *Analyzer
	file     string // path under the copied good tree to mutate ("" = manifest-only mutant)
	old, new string
	manifest string // optional ownership.json override content
	want     string // substring that must appear in an unsuppressed finding
}

const ownNoCloners = `{"version":1,"packages":[],
  "sources":[{"recv":"BlockReader","func":"Next"}],
  "cloners":[]}`

func mutationCases() []mutCase {
	return []mutCase{
		// --- flow.bufown: the clone discipline, broken seven ways ---
		{name: "bufown-drop-msg-clone", analyzer: BufOwn, file: "good.go",
			old: "msg := strings.Clone(ln.Message)", new: "msg := ln.Message",
			want: "passed to mine"},
		{name: "bufown-drop-class-clone", analyzer: BufOwn, file: "good.go",
			old: "ln.Class = strings.Clone(ln.Class)", new: "_ = ln.Class",
			want: "passed to mine"},
		{name: "bufown-ungated-clone", analyzer: BufOwn, file: "good.go",
			old:  "msg := strings.Clone(ln.Message)",
			new:  "msg := ln.Message\n\tif len(msg) > 1 {\n\t\tmsg = strings.Clone(msg)\n\t}",
			want: "passed to mine"},
		{name: "bufown-warn-raw", analyzer: BufOwn, file: "good.go",
			old: `p.warnf("empty blob: %s", raw)`, new: "p.warns = append(p.warns, raw)",
			want: "field warns of p"},
		{name: "bufown-emit-view", analyzer: BufOwn, file: "good.go",
			old:  "bs := []byte(w.Next())\n\tp.emit(event{Raw: string(bs)})",
			new:  "p.emit(event{Raw: w.Next()})",
			want: "passed to emit"},
		{name: "bufown-bypass-miner", analyzer: BufOwn, file: "good.go",
			old: "p.mine(ln)", new: "p.emit(event{Raw: ln.Message})",
			want: "passed to emit"},
		{name: "bufown-manifest-no-cloners", analyzer: BufOwn,
			manifest: ownNoCloners, want: "passed to mine"},

		// --- flow.goaccount: every tie to a lifecycle account, severed ---
		{name: "goaccount-drop-wg-add", analyzer: GoAccount, file: "good.go",
			old:  "s.wg.Add(1)\n\tgo func() {\n\t\tdefer s.wg.Done()\n\t\t<-s.work\n\t}()",
			new:  "go func() {\n\t\t<-s.work\n\t}()",
			want: "tied to no lifecycle account"},
		{name: "goaccount-drop-pending-inc", analyzer: GoAccount, file: "good.go",
			old:  "s.pending++\n\tgo func() {",
			new:  "go func() {",
			want: "tied to no lifecycle account"},
		{name: "goaccount-account-after-launch", analyzer: GoAccount, file: "good.go",
			old:  "s.pending++\n\tgo func() {\n\t\t<-s.work\n\t}()",
			new:  "go func() {\n\t\t<-s.work\n\t}()\n\ts.pending++",
			want: "tied to no lifecycle account"},
		{name: "goaccount-drop-done-case", analyzer: GoAccount, file: "good.go",
			old:  "case <-s.done:\n\t\t\t\treturn\n\t\t\tcase v := <-s.work:",
			new:  "case v := <-s.work:",
			want: "tied to no lifecycle account"},
		{name: "goaccount-quit-to-work", analyzer: GoAccount, file: "good.go",
			old:  "<-s.quit",
			new:  "<-s.work",
			want: "tied to no lifecycle account"},
		{name: "goaccount-loop-loses-done", analyzer: GoAccount, file: "good.go",
			old:  "\t\tcase <-s.done:\n\t\t\treturn\n\t\tcase v := <-s.work:",
			new:  "\t\tcase v := <-s.work:",
			want: "tied to no lifecycle account"},
		{name: "goaccount-helper-loses-wait", analyzer: GoAccount, file: "good.go",
			old:  "func (s *srv) inner() { <-s.done }",
			new:  "func (s *srv) inner() { s.pending = 0 }",
			want: "tied to no lifecycle account"},
		{name: "goaccount-range-over-slice", analyzer: GoAccount, file: "good.go",
			old:  "for v := range s.work { // ended by close(s.work)",
			new:  "for v := range []int{1, 2} {",
			want: "tied to no lifecycle account"},

		// --- flow.smconform: implementation and model drift apart ---
		{name: "smconform-undeclared-edge", analyzer: SMConform, file: "yarn/yarn.go",
			old:  `r.contState("c_1", "ALLOCATED", "RUNNING")`,
			new:  `r.contState("c_1", "ALLOCATED", "LOST")`,
			want: "RMContainer transition ALLOCATED -> LOST is emitted by the implementation but absent"},
		{name: "smconform-model-drift", analyzer: SMConform, file: "mc/mc.go",
			old:  `"RUNNING":   "FINISHED",`,
			new:  `"RUNNING":   "KILLED",`,
			want: "model declares RMApp transition RUNNING -> KILLED, but no implementation emit site"},
		{name: "smconform-duplicate-entry", analyzer: SMConform, file: "mc/mc.go",
			old:  `"ALLOCATED": {"RUNNING"},`,
			new:  `"ALLOCATED": {"RUNNING", "RUNNING"},`,
			want: "twice"},
		{name: "smconform-terminal-drift", analyzer: SMConform, file: "mc/mc.go",
			old:  `var rmContTerminal = map[string]bool{"COMPLETED": true}`,
			new:  `var rmContTerminal = map[string]bool{"RUNNING": true}`,
			want: "outgoing RMContainer transition from terminal state RUNNING"},
		{name: "smconform-emit-shape-rot", analyzer: SMConform, file: "yarn/yarn.go",
			old:  `"%s Container Transitioned from %s to %s"`,
			new:  `"%s Container moved from %s to %s"`,
			want: "no implemented RMContainer transitions were extracted"},
		{name: "smconform-nm-drift", analyzer: SMConform, file: "yarn/yarn.go",
			old:  `"Container %s transitioned from RUNNING to DONE"`,
			new:  `"Container %s transitioned from RUNNING to EXITED"`,
			want: "NM-container transition RUNNING -> EXITED is emitted"},
		{name: "smconform-non-literal-call", analyzer: SMConform, file: "yarn/yarn.go",
			old:  `r.appState("app_1", "NEW", "SUBMITTED", "START")`,
			new:  "st := \"NEW\"\n\tr.appState(\"app_1\", st, \"SUBMITTED\", \"START\")",
			want: "wrapper appState called with non-literal states"},
		{name: "smconform-unimplemented-edge", analyzer: SMConform, file: "yarn/yarn.go",
			old:  "r.appState(\"app_1\", \"RUNNING\", \"FINISHED\", \"UNREGISTERED\")\n",
			new:  "",
			want: "model declares RMApp transition RUNNING -> FINISHED, but no implementation emit site"},
	}
}

// TestMutations seeds each defect into a scratch copy of the analyzer's
// good fixture and requires the analyzer to report it.
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("scratch-package loads in -short mode")
	}
	for _, mc := range mutationCases() {
		t.Run(mc.name, func(t *testing.T) {
			base := filepath.Join("testdata", "src", mc.analyzer.Name)
			scratch := "mut-" + mc.name
			copyTree(t, filepath.Join(base, "good"), filepath.Join(base, scratch))
			if mc.file != "" {
				mutateFile(t, filepath.Join(base, scratch, mc.file), mc.old, mc.new)
			}
			ownPath := ""
			if mc.manifest != "" {
				ownPath = filepath.Join(base, scratch, "ownership.json")
				if err := os.WriteFile(ownPath, []byte(mc.manifest), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			findings := Errors(runScratch(t, mc.analyzer, scratch, ownPath))
			for _, f := range findings {
				if strings.Contains(f.Message, mc.want) {
					return
				}
			}
			t.Fatalf("seeded mutant not detected: no finding contains %q; findings: %v",
				mc.want, findings)
		})
	}
}

// TestRealTreeConformanceMutant is the acceptance demonstration for
// flow.smconform on the production packages: a copy of internal/yarn and
// internal/mc is conformance-clean as shipped, and injecting one
// undeclared transition edge into the yarn copy (RUNNING -> VANISHED,
// replacing a preemption emit) fails the analysis.
func TestRealTreeConformanceMutant(t *testing.T) {
	if testing.Short() {
		t.Skip("scratch-package loads in -short mode")
	}
	base := filepath.Join("testdata", "src", SMConform.Name)
	scratch := "mut-real"
	copyTree(t, filepath.Join("..", "yarn"), filepath.Join(base, scratch, "yarn"))
	copyTree(t, filepath.Join("..", "mc"), filepath.Join(base, scratch, "mc"))

	if errs := Errors(runScratch(t, SMConform, scratch, "")); len(errs) != 0 {
		t.Fatalf("pristine yarn/mc copy is not conformance-clean: %v", errs)
	}

	mutateFile(t, filepath.Join(base, scratch, "yarn", "rm.go"),
		`rm.contState(al.Container, "RUNNING", "KILLED")`,
		`rm.contState(al.Container, "RUNNING", "VANISHED")`)
	var hit bool
	for _, f := range Errors(runScratch(t, SMConform, scratch, "")) {
		if strings.Contains(f.Message, "RMContainer transition RUNNING -> VANISHED is emitted by the implementation but absent") {
			hit = true
		}
	}
	if !hit {
		t.Fatal("undeclared RMContainer edge RUNNING -> VANISHED injected into the yarn copy was not reported")
	}
}
