// Package flow is a stdlib-only, flow-sensitive interprocedural
// dataflow engine over go/types-resolved ASTs. It computes per-function
// ownership summaries — which inputs flow to which results, which
// inputs are written into another input's pointee, and which inputs
// escape to state no frame owns (globals, map inserts, channel sends) —
// by fixpoint iteration over the static call graph, then replays each
// function with a concrete taint source active to find unsanctioned
// escapes.
//
// The abstraction is deliberately small and matched to the repository's
// ownership disciplines rather than fully general:
//
//   - Taint attaches to reference-carrying values only (strings, slices,
//     maps, channels, pointers, interfaces, and structs holding them);
//     assigning through an int or bool breaks taint, as does anything
//     that copies bytes (string<->[]byte conversions, string
//     concatenation, copy, and the manifest's cloner functions).
//
//   - Struct locals and parameters are tracked one field deep, so
//     `line.Class = strings.Clone(line.Class)` cleans exactly that field
//     while line.Message stays tracked.
//
//   - A function's locally-allocated heap (p := New(); p.f = v) counts
//     as local until it is itself stored somewhere non-local; the store
//     of p is where taint inside it is reported.
//
//   - Unknown callees (outside the analyzed set) propagate taint from
//     arguments to reference-carrying results but are assumed not to
//     retain their arguments; retaining callees must be in the analyzed
//     set or declared in the caller's manifest.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
)

var debugEscapes = os.Getenv("FLOW_DEBUG") != ""

// srcBit is the label for values derived from a configured Source
// function; input i (receiver first, then parameters) is bit i+1.
const srcBit uint64 = 1

// maxInputs caps the labelled inputs of one function (beyond it, extra
// inputs share the last label — conservative, never unsound for the
// escape direction, and unheard-of in this tree).
const maxInputs = 62

// Config declares the ownership contract the engine enforces.
type Config struct {
	// IsSource reports whether calling fn yields a value whose backing
	// memory is owned by a reusable buffer (e.g. BlockReader.Next).
	IsSource func(fn *types.Func) bool

	// IsCloner reports whether fn's results copy their inputs' bytes
	// (strings.Clone, fmt.Sprintf, ...). Cloner results are clean.
	IsCloner func(fn *types.Func) bool
}

// Func is one function under analysis.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Info *types.Info

	sum summary
}

// summary is a function's ownership summary in label space: bit 0 is
// "derived from a Source call inside", bit i+1 is input i.
type summary struct {
	// escapes: labels stored where no frame owns them (package globals,
	// sends on channels, inserts into non-local maps).
	escapes uint64
	// toPointee[i]: labels written into input i's pointee (fields of a
	// pointer receiver, elements of a map/slice argument, ...).
	toPointee []uint64
	// toResult[r]: labels flowing into result r.
	toResult []uint64
}

func (s *summary) equal(o *summary) bool {
	if s.escapes != o.escapes || len(s.toPointee) != len(o.toPointee) || len(s.toResult) != len(o.toResult) {
		return false
	}
	for i := range s.toPointee {
		if s.toPointee[i] != o.toPointee[i] {
			return false
		}
	}
	for i := range s.toResult {
		if s.toResult[i] != o.toResult[i] {
			return false
		}
	}
	return true
}

// Retains reports whether input i's memory can outlive a call to f —
// stored into another input's pointee or escaping the call graph
// entirely. Valid after Program.Resolve.
func (f *Func) Retains(i int) bool {
	bit := inputBit(i)
	if f.sum.escapes&bit != 0 {
		return true
	}
	for j, m := range f.sum.toPointee {
		// Input i landing in its own pointee (k.lines = append(k.lines,
		// ...)) keeps the memory with its existing owner: not retention.
		if j != i && m&bit != 0 {
			return true
		}
	}
	return false
}

// FlowsToResult reports whether input i's backing memory can flow into
// result r without an intervening copy. Valid after Program.Resolve.
func (f *Func) FlowsToResult(i, r int) bool {
	if r < 0 || r >= len(f.sum.toResult) {
		return false
	}
	return f.sum.toResult[r]&inputBit(i) != 0
}

// Program is a set of functions analyzed together. Functions are keyed
// by FullName, not object identity: every package is type-checked
// against export data, so a callee referenced from an importing package
// is a different types.Object than the one from its source-checked home
// package, but both render the same full name.
type Program struct {
	Fset  *token.FileSet
	cfg   Config
	funcs map[string]*Func
	list  []*Func
}

// NewProgram returns an empty program with the given contract.
func NewProgram(fset *token.FileSet, cfg Config) *Program {
	return &Program{Fset: fset, cfg: cfg, funcs: make(map[string]*Func)}
}

// Add registers one function declaration for analysis. Declarations
// without bodies and functions already added are ignored.
func (p *Program) Add(decl *ast.FuncDecl, info *types.Info) *Func {
	if decl == nil || decl.Body == nil {
		return nil
	}
	obj, _ := info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	if f := p.funcs[obj.FullName()]; f != nil {
		return f
	}
	f := &Func{Obj: obj, Decl: decl, Info: info}
	p.funcs[obj.FullName()] = f
	p.list = append(p.list, f)
	return f
}

// Funcs returns every registered function, in registration order.
func (p *Program) Funcs() []*Func { return p.list }

// Resolve computes every function's summary by fixpoint iteration:
// summaries only grow, so iterating until a full round changes nothing
// terminates. The round cap is a safety net far above the call-graph
// depth of any real package.
func (p *Program) Resolve() {
	for round := 0; round < 32; round++ {
		changed := false
		for _, f := range p.list {
			w := newWalker(p, f, nil)
			w.run()
			next := summary{escapes: w.escapes, toPointee: w.toPointee, toResult: w.toResult}
			if !next.equal(&f.sum) {
				f.sum = next
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// Escape is one unsanctioned flow of source-derived memory out of the
// frame that materialized it.
type Escape struct {
	Pos token.Pos
	// What describes the destination ("stored into p (heap-lived ...)").
	What string
}

// Check replays fn with only Source calls producing taint and reports
// every point where source-derived memory outlives the frame without a
// sanctioned clone. Call after Resolve.
func (p *Program) Check(fn *Func, report func(Escape)) {
	w := newWalker(p, fn, report)
	w.run()
}

// ---------------------------------------------------------------------
// Taint state

// tkey addresses one tracked cell: a variable, or one field of it.
// field == "" is the undecomposed whole.
type tkey struct {
	obj   types.Object
	field string
}

type state map[tkey]uint64

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s state) join(o state) {
	for k, v := range o {
		s[k] |= v
	}
}

// walker runs the abstract interpretation of one function body, in one
// of two modes: summary mode (report == nil; inputs carry labels) and
// check mode (report != nil; only Source calls create taint).
type walker struct {
	prog   *Program
	fn     *Func
	info   *types.Info
	st     state
	report func(Escape)

	inputs []types.Object // receiver first, then params
	named  []types.Object // named results (for naked returns)

	escapes   uint64
	toPointee []uint64
	toResult  []uint64
}

func newWalker(p *Program, fn *Func, report func(Escape)) *walker {
	w := &walker{prog: p, fn: fn, info: fn.Info, st: make(state), report: report}
	sig := fn.Obj.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		w.inputs = append(w.inputs, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.inputs = append(w.inputs, sig.Params().At(i))
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if v := sig.Results().At(i); v.Name() != "" {
			w.named = append(w.named, v)
		} else {
			w.named = append(w.named, nil)
		}
	}
	w.toPointee = make([]uint64, len(w.inputs))
	w.toResult = make([]uint64, sig.Results().Len())
	if report == nil {
		// Summary mode: label the inputs.
		for i, in := range w.inputs {
			w.initInput(in, inputBit(i))
		}
	}
	return w
}

func inputBit(i int) uint64 {
	if i >= maxInputs {
		i = maxInputs - 1
	}
	return 1 << uint(i+1)
}

// initInput seeds one input's taint label. Struct values get per-field
// cells (so a field-wise clone can kill precisely); everything
// reference-carrying else gets a whole-cell label.
func (w *walker) initInput(in types.Object, label uint64) {
	t := in.Type()
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if carriesRef(f.Type()) {
				w.st[tkey{in, f.Name()}] = label
			}
		}
		return
	}
	if carriesRef(t) {
		w.st[tkey{in, ""}] = label
	}
}

// carriesRef reports whether values of t can share backing memory with
// another value (and so can carry taint).
func carriesRef(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice, *types.Map, *types.Chan, *types.Pointer, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return carriesRef(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRef(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func (w *walker) run() {
	w.block(w.fn.Decl.Body)
	// Falling off the end of a function with named results is an
	// implicit naked return.
	w.nakedReturn()
}

func (w *walker) nakedReturn() {
	for i, v := range w.named {
		if v != nil {
			w.toResult[i] |= w.readWhole(v)
		}
	}
}

// ---------------------------------------------------------------------
// Statements

func (w *walker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assignStmt(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var mask uint64
					if len(vs.Values) == len(vs.Names) {
						mask = w.expr(vs.Values[i])
					} else if len(vs.Values) == 1 {
						masks := w.exprTuple(vs.Values[0], len(vs.Names))
						mask = masks[i]
					}
					if obj := w.info.Defs[name]; obj != nil {
						w.writeWhole(obj, mask)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		for i := 0; i < 2; i++ {
			if s.Cond != nil {
				w.expr(s.Cond)
			}
			w.block(s.Body)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		mask := w.expr(s.X)
		for i := 0; i < 2; i++ {
			w.bindRange(s, mask)
			w.block(s.Body)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.forkCases(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		var tagMask uint64
		var tagAssign *ast.AssignStmt
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			tagAssign = a
			tagMask = w.expr(a.Rhs[0])
		case *ast.ExprStmt:
			tagMask = w.expr(a.X)
		}
		// Each case clause redeclares the assigned variable with the
		// case's type; taint carries over from the switched value.
		base := w.st.clone()
		joined := w.st.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.st = base.clone()
			if tagAssign != nil {
				if id, ok := tagAssign.Lhs[0].(*ast.Ident); ok {
					if obj := w.info.Implicits[cc]; obj != nil {
						w.writeWhole(obj, tagMask)
					} else if obj := w.info.Defs[id]; obj != nil {
						w.writeWhole(obj, tagMask)
					}
				}
			}
			for _, cs := range cc.Body {
				w.stmt(cs)
			}
			joined.join(w.st)
		}
		w.st = joined
	case *ast.SelectStmt:
		w.forkCases(s.Body)
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			w.nakedReturn()
			return
		}
		if len(s.Results) == 1 && len(w.toResult) > 1 {
			masks := w.exprTuple(s.Results[0], len(w.toResult))
			for i, m := range masks {
				w.toResult[i] |= m
			}
			return
		}
		for i, r := range s.Results {
			if i < len(w.toResult) {
				w.toResult[i] |= w.expr(r)
			}
		}
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		mask := w.expr(s.Value)
		w.escape(mask, s.Arrow, "sent on a channel")
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm)
		}
		for _, cs := range s.Body {
			w.stmt(cs)
		}
	}
}

// forkCases runs each case/comm clause from the pre-switch state and
// joins the exits (plus the fall-past-all-cases state).
func (w *walker) forkCases(body *ast.BlockStmt) {
	base := w.st.clone()
	joined := w.st.clone()
	for _, c := range body.List {
		w.st = base.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, cs := range cc.Body {
				w.stmt(cs)
			}
		case *ast.CommClause:
			w.stmt(cc)
		}
		joined.join(w.st)
	}
	w.st = joined
}

// ifStmt forks then/else and joins, so a clone on one branch only
// leaves the value tainted after the if.
func (w *walker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	w.expr(s.Cond)

	base := w.st.clone()
	w.block(s.Body)
	thenExit := w.st

	w.st = base
	if s.Else != nil {
		w.stmt(s.Else)
	}
	w.st.join(thenExit)
}

func (w *walker) bindRange(s *ast.RangeStmt, mask uint64) {
	bind := func(e ast.Expr, m uint64) {
		if e == nil {
			return
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			w.assign(e, m, e.Pos())
			return
		}
		obj := w.info.Defs[id]
		if obj == nil {
			obj = w.info.Uses[id]
		}
		if obj != nil {
			if !carriesRef(obj.Type()) {
				m = 0
			}
			w.writeWhole(obj, m)
		}
	}
	// Ranging over a string yields runes (no sharing); everything else
	// can share backing memory with the ranged value.
	if tv, ok := w.info.Types[s.X]; ok {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			mask = 0
		}
	}
	bind(s.Key, 0) // keys are ints except for maps; approximate clean
	if tv, ok := w.info.Types[s.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			bind(s.Key, mask)
		}
	}
	bind(s.Value, mask)
}

// ---------------------------------------------------------------------
// Assignment and escape classification

func (w *walker) assignStmt(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		masks := w.exprTuple(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			w.assign(lhs, masks[i], s.Pos())
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		// A struct literal assigned whole to a local gets per-field
		// cells, so later field-wise clones kill precisely.
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			rhs := ast.Unparen(s.Rhs[i])
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				rhs = ast.Unparen(ue.X)
			}
			if lit, ok := rhs.(*ast.CompositeLit); ok {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					if obj := w.objOf(id); obj != nil && w.isLocal(obj) && w.assignComposite(obj, lit) {
						continue
					}
				}
			}
		}
		mask := w.expr(s.Rhs[i])
		// += on strings concatenates (copies); other compound ops are
		// numeric. Either way the result shares nothing with the RHS.
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			mask = 0
		}
		w.assign(lhs, mask, s.Pos())
	}
}

// assignComposite writes a struct literal's elements into per-field
// cells of obj. Reports false (unhandled) for non-struct literals.
func (w *walker) assignComposite(obj types.Object, lit *ast.CompositeLit) bool {
	st := structOf(obj.Type())
	if st == nil {
		return false
	}
	w.writeWhole(obj, 0)
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			w.st[tkey{obj, ""}] |= w.expr(el)
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			w.st[tkey{obj, ""}] |= w.expr(kv.Value)
			continue
		}
		if m := w.expr(kv.Value); m != 0 {
			w.st[tkey{obj, key.Name}] = m
		}
	}
	return true
}

// assign stores mask into lhs, classifying the destination: local
// update, flow into an input's pointee, or an escape to unowned state.
func (w *walker) assign(lhs ast.Expr, mask uint64, pos token.Pos) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.objOf(lhs)
		if obj == nil {
			return
		}
		if !carriesRef(obj.Type()) {
			mask = 0
		}
		if w.isLocal(obj) {
			w.writeWhole(obj, mask)
			return
		}
		if i := w.inputIndex(obj); i >= 0 {
			// Reassigning a parameter variable itself is local.
			w.writeWhole(obj, mask)
			return
		}
		// Package-level variable.
		w.escape(mask, pos, fmt.Sprintf("stored into package variable %s", lhs.Name))
	case *ast.SelectorExpr:
		root, field := w.rootOf(lhs)
		if root == nil {
			return
		}
		w.storeThrough(root, field, mask, pos, "field "+lhs.Sel.Name)
	case *ast.IndexExpr:
		w.expr(lhs.Index)
		root, field := w.rootOfExpr(lhs.X)
		if root == nil {
			return
		}
		w.storeThrough(root, field, mask, pos, "element store")
	case *ast.StarExpr:
		root, field := w.rootOfExpr(lhs.X)
		if root == nil {
			return
		}
		w.storeThrough(root, field, mask, pos, "pointee store")
	}
}

// storeThrough handles a store whose destination is reached through
// root: a local keeps the taint in the frame; an input records a
// pointee flow (reported in check mode when the taint is source-
// derived); a global escapes.
func (w *walker) storeThrough(root types.Object, field string, mask uint64, pos token.Pos, what string) {
	if w.isLocal(root) && !isRefThrough(root.Type()) {
		// A value-typed local struct: the store stays in the frame, and
		// field granularity lets later kills work.
		w.writeField(root, field, mask)
		return
	}
	if w.isLocal(root) {
		// A local pointer/map/slice: pointee is owned by this frame
		// until root itself is stored elsewhere; keep tracking on root.
		w.writeField(root, field, mask)
		return
	}
	if i := w.inputIndex(root); i >= 0 {
		if !isRefThrough(root.Type()) {
			// A value parameter (struct passed by value): stores stay in
			// this frame's copy.
			w.writeField(root, field, mask)
			return
		}
		w.toPointee[minInput(i)] |= mask
		if w.report != nil && mask&srcBit != 0 {
			w.report(Escape{Pos: pos, What: fmt.Sprintf("%s of %s, which outlives this call", what, root.Name())})
		}
		return
	}
	// Package-level root.
	w.escape(mask, pos, fmt.Sprintf("%s of package variable %s", what, root.Name()))
}

func minInput(i int) int {
	if i >= maxInputs {
		return maxInputs - 1
	}
	return i
}

// isRefThrough reports whether writing through a value of t reaches
// memory visible outside the current frame's copy of it.
func isRefThrough(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func (w *walker) escape(mask uint64, pos token.Pos, what string) {
	if mask == 0 {
		return
	}
	if debugEscapes {
		fmt.Printf("ESCAPE mask=%b at %s: %s\n", mask, w.prog.Fset.Position(pos), what)
	}
	w.escapes |= mask &^ srcBit
	if mask&srcBit != 0 {
		w.escapes |= srcBit
		if w.report != nil {
			w.report(Escape{Pos: pos, What: what})
		}
	}
}

// ---------------------------------------------------------------------
// Cell reads and writes

func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Uses[id]; obj != nil {
		return obj
	}
	return w.info.Defs[id]
}

// isLocal reports whether obj is a variable owned by the current frame:
// declared inside the function body, or a named result (declared in the
// signature, so the whole-declaration range is checked — inputs were
// already excluded above).
func (w *walker) isLocal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if w.inputIndex(obj) >= 0 {
		return false
	}
	decl := w.fn.Decl
	return obj.Pos() >= decl.Pos() && obj.Pos() <= decl.End()
}

func (w *walker) inputIndex(obj types.Object) int {
	for i, in := range w.inputs {
		if in == obj {
			return i
		}
	}
	return -1
}

// readWhole returns the union of every cell of obj.
func (w *walker) readWhole(obj types.Object) uint64 {
	var m uint64
	for k, v := range w.st {
		if k.obj == obj {
			m |= v
		}
	}
	return m
}

func (w *walker) readField(obj types.Object, field string) uint64 {
	return w.st[tkey{obj, field}] | w.st[tkey{obj, ""}]
}

// writeWhole strong-updates obj: every field cell is dropped.
func (w *walker) writeWhole(obj types.Object, mask uint64) {
	for k := range w.st {
		if k.obj == obj {
			delete(w.st, k)
		}
	}
	if mask != 0 {
		w.st[tkey{obj, ""}] = mask
	}
}

// writeField strong-updates one field cell, first exploding a
// whole-object mask onto the fields so the update really is strong.
func (w *walker) writeField(obj types.Object, field string, mask uint64) {
	if field == "" {
		// Store through the whole object (slice element, pointee):
		// weak update, content merges.
		if mask != 0 {
			w.st[tkey{obj, ""}] |= mask
		}
		return
	}
	if whole := w.st[tkey{obj, ""}]; whole != 0 {
		if st := structOf(obj.Type()); st != nil {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if carriesRef(f.Type()) {
					w.st[tkey{obj, f.Name()}] |= whole
				}
			}
			delete(w.st, tkey{obj, ""})
		}
	}
	k := tkey{obj, field}
	if mask == 0 {
		delete(w.st, k)
	} else {
		w.st[k] = mask
	}
}

// structOf unwraps t (through one pointer) to its struct type, or nil.
func structOf(t types.Type) *types.Struct {
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	st, _ := u.(*types.Struct)
	return st
}

// rootOf resolves a selector chain to its root object and the first
// field selected on it (line.Class -> (line, "Class"); p.warns.count ->
// (p, "warns")). Returns nil for non-ident roots (call results etc.).
func (w *walker) rootOf(sel *ast.SelectorExpr) (types.Object, string) {
	// Package-qualified identifier (pkg.Var) is itself a root.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
			return w.info.Uses[sel.Sel], ""
		}
	}
	field := sel.Sel.Name
	e := ast.Unparen(sel.X)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return w.objOf(x), field
		case *ast.SelectorExpr:
			field = x.Sel.Name
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			field = ""
			e = ast.Unparen(x.X)
		default:
			return nil, ""
		}
	}
}

// rootOfExpr is rootOf for arbitrary expressions.
func (w *walker) rootOfExpr(e ast.Expr) (types.Object, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.objOf(e), ""
	case *ast.SelectorExpr:
		return w.rootOf(e)
	case *ast.StarExpr:
		return w.rootOfExpr(e.X)
	case *ast.IndexExpr:
		root, _ := w.rootOfExpr(e.X)
		return root, ""
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.rootOfExpr(e.X)
		}
	}
	return nil, ""
}

// ---------------------------------------------------------------------
// Expressions

// expr computes the taint mask of e, performing call effects and
// walking nested function literals along the way.
func (w *walker) expr(e ast.Expr) uint64 {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.BasicLit:
		return 0
	case *ast.Ident:
		obj := w.objOf(e)
		if obj == nil || !carriesRef(objType(obj)) {
			return 0
		}
		return w.readWhole(obj)
	case *ast.SelectorExpr:
		// Method value or qualified name: no data read.
		if sel, ok := w.info.Selections[e]; ok && sel.Kind() != types.FieldVal {
			w.expr(e.X)
			return 0
		}
		root, field := w.rootOf(e)
		if root == nil {
			return w.expr(e.X)
		}
		return w.readField(root, field)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND || e.Op == token.ARROW {
			return w.expr(e.X)
		}
		w.expr(e.X)
		return 0
	case *ast.BinaryExpr:
		// String concatenation allocates a fresh backing array; every
		// other binary op is scalar. Either way: clean.
		w.expr(e.X)
		w.expr(e.Y)
		return 0
	case *ast.IndexExpr:
		w.expr(e.Index)
		base := w.expr(e.X)
		if tv, ok := w.info.Types[e.X]; ok {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return 0 // s[i] is a byte
			}
		}
		return base
	case *ast.IndexListExpr:
		return w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= w.expr(kv.Value)
				continue
			}
			m |= w.expr(el)
		}
		return m
	case *ast.FuncLit:
		// Closures share the frame's variables: analyze the body inline
		// at the point of creation. Stores inside are classified with
		// the enclosing function's inputs/locals, which is exactly the
		// sharing semantics of a capture.
		w.block(e.Body)
		return 0
	case *ast.CallExpr:
		masks := w.call(e)
		var m uint64
		for _, v := range masks {
			m |= v
		}
		return m
	}
	return 0
}

func objType(obj types.Object) types.Type {
	if obj == nil {
		return types.Typ[types.Invalid]
	}
	return obj.Type()
}

// exprTuple computes per-result masks for a multi-value expression.
func (w *walker) exprTuple(e ast.Expr, n int) []uint64 {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		masks := w.call(call)
		if len(masks) == n {
			return masks
		}
		out := make([]uint64, n)
		var all uint64
		for _, m := range masks {
			all |= m
		}
		for i := range out {
			out[i] = all
		}
		return out
	}
	out := make([]uint64, n)
	m := w.expr(e)
	// v, ok := m[k] / x.(T) / <-ch: the bool is clean.
	out[0] = m
	return out
}

// ---------------------------------------------------------------------
// Calls

// calleeOf resolves a call to its static callee, or nil (builtins,
// dynamic calls, conversions).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// call evaluates a call's arguments, applies the callee's summary (or a
// conservative default), and returns per-result taint masks.
func (w *walker) call(call *ast.CallExpr) []uint64 {
	// Type conversion?
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []uint64{w.conversion(tv.Type, call.Args[0])}
	}
	// Builtin?
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			return w.builtin(b.Name(), call)
		}
	}

	fn := calleeOf(w.info, call)

	// Function literal called in place: bind arguments, then the body
	// was/will be analyzed inline by expr(FuncLit).
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.expr(a)
		}
		w.block(lit.Body)
		return w.resultMasks(call, 0)
	}

	// Evaluate receiver and arguments (in order).
	var argMasks []uint64
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := w.info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			argMasks = append(argMasks, w.expr(sel.X))
		} else {
			w.expr(sel.X)
		}
	}
	for _, a := range call.Args {
		argMasks = append(argMasks, w.expr(a))
	}

	if fn != nil && w.prog.cfg.IsCloner != nil && w.prog.cfg.IsCloner(fn) {
		return w.resultMasks(call, 0)
	}
	if fn != nil && w.prog.cfg.IsSource != nil && w.prog.cfg.IsSource(fn) {
		return w.resultMasks(call, srcBit)
	}
	if fn != nil {
		if f := w.prog.funcs[fn.FullName()]; f != nil {
			return w.applySummary(call, f, argMasks)
		}
	}

	// Unknown callee: results derive from reference-carrying arguments;
	// no retention assumed (see package doc).
	var all uint64
	for _, m := range argMasks {
		all |= m
	}
	return w.resultMasks(call, all)
}

func (w *walker) conversion(to types.Type, arg ast.Expr) uint64 {
	m := w.expr(arg)
	if m == 0 {
		return 0
	}
	from, ok := w.info.Types[arg]
	if !ok {
		return m
	}
	// string <-> []byte/[]rune conversions copy; conversions within one
	// kind (named string to string, slice to named slice) share memory.
	fromStr := isStringType(from.Type)
	toStr := isStringType(to)
	if fromStr != toStr {
		return 0
	}
	return m
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *walker) builtin(name string, call *ast.CallExpr) []uint64 {
	switch name {
	case "append":
		var m uint64
		for _, a := range call.Args {
			m |= w.expr(a)
		}
		return []uint64{m}
	case "copy":
		// copy duplicates bytes into dst's existing storage: clean.
		for _, a := range call.Args {
			w.expr(a)
		}
		return []uint64{0}
	case "panic":
		if len(call.Args) == 1 {
			m := w.expr(call.Args[0])
			w.escape(m, call.Pos(), "passed to panic")
		}
		return nil
	default:
		for _, a := range call.Args {
			w.expr(a)
		}
		return w.resultMasks(call, 0)
	}
}

// resultMasks sizes the per-result mask slice for a call expression.
func (w *walker) resultMasks(call *ast.CallExpr, mask uint64) []uint64 {
	tv, ok := w.info.Types[call]
	if !ok {
		return []uint64{mask}
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]uint64, tuple.Len())
		for i := range out {
			if carriesRef(tuple.At(i).Type()) {
				out[i] = mask
			}
		}
		return out
	}
	if !carriesRef(tv.Type) {
		mask = 0
	}
	return []uint64{mask}
}

// applySummary composes a known callee's summary with the call's
// argument masks: results pick up flowing labels, pointee flows write
// into the argument roots, and escapes propagate (or report).
func (w *walker) applySummary(call *ast.CallExpr, callee *Func, argMasks []uint64) []uint64 {
	// Argument expressions, receiver first, mirroring argMasks.
	var argExprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := w.info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			argExprs = append(argExprs, sel.X)
		}
	}
	argExprs = append(argExprs, call.Args...)

	// Fold variadic extras into the last input slot so summary bit j
	// addresses argument j.
	nin := len(callee.sum.toPointee)
	if len(argMasks) > nin && nin > 0 {
		folded := make([]uint64, nin)
		copy(folded, argMasks[:nin-1])
		for _, m := range argMasks[nin-1:] {
			folded[nin-1] |= m
		}
		argMasks = folded
	}

	compose := func(labels uint64) uint64 {
		var out uint64
		if labels&srcBit != 0 {
			out |= srcBit
		}
		for j := 0; j < len(argMasks) && j < maxInputs; j++ {
			if labels&inputBit(j) != 0 {
				out |= argMasks[j]
			}
		}
		return out
	}

	// Pointee flows: taint written into argument j's pointee lands on
	// the argument's root in this frame.
	for j, labels := range callee.sum.toPointee {
		incoming := compose(labels)
		if incoming == 0 {
			continue
		}
		if j >= len(argExprs) {
			continue
		}
		targets := argExprs[j : j+1]
		if j == nin-1 {
			targets = argExprs[j:] // the variadic slot covers the rest
		}
		for _, arg := range targets {
			root, field := w.rootOfExpr(arg)
			if root == nil {
				continue
			}
			w.storeThrough(root, field, incoming, call.Pos(),
				fmt.Sprintf("passed to %s, which stores it into its %s argument; that memory", callee.Obj.Name(), inputName(callee, j)))
		}
	}

	// Escapes inside the callee: labels that map to our arguments
	// escape here too. Source-derived escapes inside the callee are the
	// callee's own report; only argument-carried taint reports here.
	if esc := compose(callee.sum.escapes &^ srcBit); esc != 0 {
		w.escape(esc, call.Pos(), fmt.Sprintf("passed to %s, which stores it beyond any caller's frame", callee.Obj.Name()))
	}

	out := make([]uint64, len(callee.sum.toResult))
	for r, labels := range callee.sum.toResult {
		out[r] = compose(labels)
	}
	if len(out) == 0 {
		return w.resultMasks(call, 0)
	}
	return out
}

// inputName names callee input j for diagnostics.
func inputName(callee *Func, j int) string {
	sig := callee.Obj.Type().(*types.Signature)
	if sig.Recv() != nil {
		if j == 0 {
			return "receiver"
		}
		j--
	}
	if j < sig.Params().Len() {
		if n := sig.Params().At(j).Name(); n != "" {
			return n
		}
	}
	return fmt.Sprintf("#%d", j)
}
