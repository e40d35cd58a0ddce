package analysis

import (
	"embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"

	"repro/internal/analysis/flow"
)

// BufOwn proves the zero-copy scan discipline: no string or []byte
// derived from a read block (a manifest-declared source such as
// BlockReader.Next, whose result is a view of the reader's buffer that
// segmentIter slices into line views, so a view that is kept reads
// bytes the next read writes over) may be stored into heap-lived state
// — a package variable, a map, a channel send, or a struct that
// outlives the call — without passing through a sanctioned clone site
// (strings.Clone and friends).
//
// The analysis is interprocedural: per-function ownership summaries are
// computed by internal/analysis/flow over every scoped package, so a
// retention hidden behind helper calls (p.emit, warns.add) is still
// attributed to the call site that fed it source-derived memory.
var BufOwn = &Analyzer{
	Name:   bufownName,
	Doc:    "prove no reusable-scan-buffer memory is retained past a scan without a sanctioned clone (manifest: internal/analysis/ownership.json)",
	Run:    bufownRun,
	Finish: bufownFinish,
}

// The ownership manifest declares the contract bufown enforces; like
// vocab.json it is embedded so cmd/sdlint needs no side files, and
// "checked": sources that no longer resolve in the scoped packages are
// themselves findings, so the manifest cannot rot.

//go:embed ownership.json
var ownershipFS embed.FS

// OwnSource declares one reusable-buffer source function.
type OwnSource struct {
	// Recv is the receiver type name ("" for package-level functions).
	Recv string `json:"recv"`
	// Func is the function or method name.
	Func string `json:"func"`
	// Doc says why the result aliases reusable memory.
	Doc string `json:"doc,omitempty"`
}

// OwnCloner declares one sanctioned clone function: its results copy
// their inputs' bytes.
type OwnCloner struct {
	// Pkg is the defining package's import path ("" for functions
	// matched by receiver within the scoped packages).
	Pkg string `json:"pkg,omitempty"`
	// Recv is the receiver type name for scoped methods.
	Recv string `json:"recv,omitempty"`
	Func string `json:"func"`
}

// Ownership is the parsed manifest.
type Ownership struct {
	Version int `json:"version"`

	// Packages scopes the analysis (import-path suffixes, like the
	// other analyzers' package lists).
	Packages []string `json:"packages"`

	Sources []OwnSource `json:"sources"`
	Cloners []OwnCloner `json:"cloners"`

	// Path is where the manifest was loaded from (for diagnostics).
	Path string `json:"-"`
}

// DefaultOwnership parses the embedded manifest.
func DefaultOwnership() (*Ownership, error) {
	raw, err := ownershipFS.ReadFile("ownership.json")
	if err != nil {
		return nil, err
	}
	return parseOwnership(raw, "internal/analysis/ownership.json")
}

// LoadOwnership parses a manifest file (fixtures may carry their own).
func LoadOwnership(path string) (*Ownership, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseOwnership(raw, path)
}

func parseOwnership(raw []byte, path string) (*Ownership, error) {
	o := &Ownership{Path: path}
	if err := json.Unmarshal(raw, o); err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", path, err)
	}
	if len(o.Sources) == 0 {
		return nil, fmt.Errorf("analysis: %s: no sources declared; an empty contract proves nothing", path)
	}
	for _, c := range o.Cloners {
		if c.Func == "" || (c.Pkg == "" && c.Recv == "") {
			return nil, fmt.Errorf("analysis: %s: cloner %+v needs func and one of pkg or recv", path, c)
		}
	}
	return o, nil
}

func (u *Unit) ownership() (*Ownership, error) {
	if u.OwnershipPath != "" {
		return LoadOwnership(u.OwnershipPath)
	}
	return DefaultOwnership()
}

// bufownRun is per-package a no-op: the ownership analysis is inherently
// cross-package (summaries compose across import edges), so all work
// happens in Finish over the gathered passes.
func bufownRun(pass *Pass) {}

func bufownFinish(u *Unit) {
	man, err := u.ownership()
	if err != nil {
		u.ReportAt(bufownName, "internal/analysis/ownership.json", 1, "%v", err)
		return
	}

	var scoped []*Pass
	for _, p := range u.Passes(bufownName) {
		if p.Pkg.Fixture == bufownName || matchesAny(p.Pkg.PkgPath, man.Packages) {
			scoped = append(scoped, p)
		}
	}
	if len(scoped) == 0 {
		return // partial load: nothing in scope, nothing to prove
	}

	prog := flow.NewProgram(u.Prog.Fset, flow.Config{
		IsSource: func(fn *types.Func) bool {
			for _, s := range man.Sources {
				if fn.Name() == s.Func && recvTypeName(fn) == s.Recv {
					return true
				}
			}
			return false
		},
		IsCloner: func(fn *types.Func) bool {
			for _, c := range man.Cloners {
				if fn.Name() != c.Func {
					continue
				}
				if c.Pkg != "" {
					if fn.Pkg() != nil && fn.Pkg().Path() == c.Pkg && recvTypeName(fn) == "" {
						return true
					}
					continue
				}
				if recvTypeName(fn) == c.Recv {
					return true
				}
			}
			return false
		},
	})

	// Register every function of every scoped package, remembering which
	// pass owns it so reports honour that file's //lint:allow directives.
	passOf := make(map[*flow.Func]*Pass)
	sourcesSeen := make(map[string]bool)
	for _, p := range scoped {
		for _, file := range p.Files() {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn := prog.Add(fd, p.TypesInfo()); fn != nil {
					passOf[fn] = p
					for i, s := range man.Sources {
						if fn.Obj.Name() == s.Func && recvTypeName(fn.Obj) == s.Recv {
							sourcesSeen[sourceKey(man.Sources[i])] = true
						}
					}
				}
			}
		}
	}

	// Checked manifest: a source that no longer resolves means the
	// contract drifted from the code — the proof would be vacuous.
	for _, s := range man.Sources {
		if !sourcesSeen[sourceKey(s)] {
			u.ReportAt(bufownName, man.Path, 1,
				"ownership manifest declares source %s, but no scoped package defines it; the buffer-ownership proof is vacuous — update the manifest", sourceKey(s))
		}
	}

	prog.Resolve()
	for _, fn := range prog.Funcs() {
		p := passOf[fn]
		prog.Check(fn, func(e flow.Escape) {
			p.Reportf(e.Pos, "reusable scan-buffer memory %s without a sanctioned clone (see internal/analysis/ownership.json)", e.What)
		})
	}
}

func sourceKey(s OwnSource) string {
	if s.Recv == "" {
		return s.Func
	}
	return s.Recv + "." + s.Func
}

// recvTypeName returns the receiver's type name ("" for functions),
// unwrapping one pointer.
func recvTypeName(fn *types.Func) string {
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
