package flow_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// loadFlowtest type-checks the synthetic subject package and resolves
// summaries under the test contract: buf.String is the source,
// strings.Clone / fmt.Sprintf / clone are cloners.
func loadFlowtest(t *testing.T) *flow.Program {
	t.Helper()
	prog, err := analysis.Load("../../..", "./internal/analysis/flow/testdata/src/flowtest")
	if err != nil {
		t.Fatalf("load flowtest: %v", err)
	}
	if len(prog.Packages) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(prog.Packages))
	}
	pkg := prog.Packages[0]
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("flowtest does not type-check: %v", terr)
	}

	cfg := flow.Config{
		IsSource: func(fn *types.Func) bool {
			return fn.Name() == "String" && recvNamed(fn) == "buf"
		},
		IsCloner: func(fn *types.Func) bool {
			full := fn.FullName()
			return full == "strings.Clone" || full == "fmt.Sprintf" || fn.Name() == "clone"
		},
	}
	fp := flow.NewProgram(prog.Fset, cfg)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fp.Add(fd, pkg.Info)
			}
		}
	}
	fp.Resolve()
	return fp
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// TestEscapeVerdicts drives Check over every Bad*/Good* function: each
// Bad must report at least one escape, each Good must report none.
func TestEscapeVerdicts(t *testing.T) {
	fp := loadFlowtest(t)
	bad, good := 0, 0
	for _, fn := range fp.Funcs() {
		name := fn.Obj.Name()
		var wantBad bool
		switch {
		case strings.HasPrefix(name, "Bad"):
			wantBad = true
			bad++
		case strings.HasPrefix(name, "Good"):
			good++
		default:
			continue
		}
		var got []flow.Escape
		fp.Check(fn, func(e flow.Escape) { got = append(got, e) })
		if wantBad && len(got) == 0 {
			t.Errorf("%s: want an escape report, got none", name)
		}
		if !wantBad && len(got) > 0 {
			t.Errorf("%s: unexpected escape: %s", name, got[0].What)
		}
	}
	if bad < 10 || good < 10 {
		t.Fatalf("convention sweep found %d Bad / %d Good functions; the fixture shrank", bad, good)
	}
}

// TestSummaries pins the interprocedural summaries the verdicts rest
// on: retention through helpers, pointee flows into receivers, result
// aliasing, and cloner-cut flows.
func TestSummaries(t *testing.T) {
	fp := loadFlowtest(t)
	byName := map[string]*flow.Func{}
	for _, fn := range fp.Funcs() {
		byName[fn.Obj.Name()] = fn
	}
	need := func(name string) *flow.Func {
		t.Helper()
		fn := byName[name]
		if fn == nil {
			t.Fatalf("function %s missing from fixture", name)
		}
		return fn
	}

	// retain stores its only parameter into a global; retain2 inherits
	// that transitively through the fixpoint.
	if !need("retain").Retains(0) {
		t.Error("retain: parameter 0 should be retained")
	}
	if !need("retain2").Retains(0) {
		t.Error("retain2: retention should propagate through one hop")
	}
	// keep appends its parameter (input 1; receiver is input 0) into
	// the receiver's slice — retained, but not an escape on its own.
	if !need("keep").Retains(1) {
		t.Error("keep: parameter should be retained into the receiver")
	}
	if need("keep").Retains(0) {
		t.Error("keep: the receiver itself is not retained anywhere")
	}
	// ident aliases its input into its result; clone copies.
	if !need("ident").FlowsToResult(0, 0) {
		t.Error("ident: input should flow to result")
	}
	if need("clone").FlowsToResult(0, 0) {
		t.Error("clone: a cloner call must cut input-to-result flow")
	}
	if need("clone").Retains(0) {
		t.Error("clone: nothing is retained")
	}
	// iter.next returns a slice of the receiver's raw field.
	if !need("next").FlowsToResult(0, 0) {
		t.Error("next: receiver memory should flow to the result")
	}
}
