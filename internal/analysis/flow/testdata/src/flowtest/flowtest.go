// Package flowtest is a synthetic subject for the flow engine's unit
// tests. Functions named Bad* must produce at least one escape report;
// functions named Good* must produce none. The test configures buf's
// String method as the taint source, and strings.Clone / fmt.Sprintf /
// clone as cloners.
package flowtest

import (
	"fmt"
	"strings"
)

// buf mimics a reusable scan buffer: its String result aliases memory
// the next scan will overwrite.
type buf struct{ b []byte }

func (b *buf) String() string { return string(b.b) }

var sinkStr string
var sinkMap = map[string]string{}
var sinkCh = make(chan string, 1)

type rec struct {
	Class string
	Msg   string
}

type keeper struct {
	lines []string
}

func (k *keeper) keep(s string) { k.lines = append(k.lines, s) }

func clone(s string) string { return strings.Clone(s) }

func ident(s string) string { return s }

// iter mimics segmentIter: returns slices of its reusable raw buffer.
type iter struct {
	raw string
	pos int
}

func (it *iter) next() string {
	i := it.pos
	it.pos = i + 1
	return it.raw[i : i+1]
}

// retain stores its argument beyond any caller's frame.
func retain(s string) { sinkStr = s }

func retain2(s string) { retain(s) }

// --- direct escapes ---

func BadGlobal(b *buf) { sinkStr = b.String() }

func BadMap(b *buf) { sinkMap["k"] = b.String() }

func BadChan(b *buf) { sinkCh <- b.String() }

func BadViaHelper(b *buf) { retain(b.String()) }

func BadViaTwoHops(b *buf) { retain2(b.String()) }

func BadViaPointee(b *buf, k *keeper) { k.keep(b.String()) }

func BadField(b *buf, k *keeper) {
	r := rec{Msg: b.String()}
	k.keep(r.Msg)
}

func BadFieldOther(b *buf, k *keeper) {
	r := rec{Msg: b.String(), Class: b.String()}
	r.Msg = strings.Clone(r.Msg)
	k.keep(r.Class) // Class was never cloned
}

func BadConditionalClone(b *buf, k *keeper) {
	s := b.String()
	if len(s) > 0 { // the clone may not run
		s = strings.Clone(s)
	}
	k.keep(s)
}

func BadSlice(b *buf, k *keeper) {
	s := b.String()
	k.keep(s[1:3]) // a substring still aliases the buffer
}

func BadDeferredLit(b *buf) {
	s := b.String()
	defer func() { sinkStr = s }() // closure shares the frame's s
}

func BadIter(b *buf, k *keeper) {
	it := iter{raw: b.String()}
	k.keep(it.next()) // next's result aliases it.raw, which aliases b
}

// --- sanctioned paths ---

func GoodIter(b *buf, k *keeper) {
	it := iter{raw: b.String()}
	k.keep(strings.Clone(it.next()))
}

func GoodClone(b *buf) { sinkStr = strings.Clone(b.String()) }

func GoodNamedClone(b *buf) { sinkStr = clone(b.String()) }

func GoodSprintf(b *buf) { sinkStr = fmt.Sprintf("%s!", b.String()) }

func GoodConcat(b *buf) { sinkStr = b.String() + "" }

func GoodConvert(b *buf) {
	bs := []byte(b.String()) // string -> []byte copies
	sinkStr = string(bs)     // and back again
}

func GoodFieldClone(b *buf, k *keeper) {
	r := rec{Msg: b.String(), Class: "x"}
	r.Msg = strings.Clone(r.Msg)
	k.keep(r.Msg)
	k.keep(r.Class)
}

// GoodNamedResult regresses the named-result bug: seg is declared in
// the signature, not the body, but it is frame-local — assigning a view
// to it is a flow to the caller, not a store into a package variable.
func GoodNamedResult(b *buf) (seg string) {
	seg = b.String()
	return
}

func GoodLocalOnly(b *buf) int {
	s := b.String()
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == 'x' {
			n++
		}
	}
	return n
}

func GoodLocalSlice(b *buf) {
	var acc []string
	acc = append(acc, b.String())
	_ = acc
}

func GoodCopy(b *buf) {
	dst := make([]byte, 8)
	copy(dst, b.String())
	sinkStr = string(dst)
}

func GoodUnknownCallee(b *buf) {
	// strings.ToUpper is outside the analyzed set: results derive from
	// arguments, but no retention is assumed — and ToUpper's result is
	// stored only in a local.
	s := strings.ToUpper(b.String())
	_ = s
}
