// Package bad seeds every mutant of the zero-copy discipline the
// bufown analyzer must catch: removed clones, conditional clones,
// partial field clones, and retentions hidden behind helpers.
package bad

import "strings"

type BlockReader struct{ buf []byte }

func (w *BlockReader) Next() string { return string(w.buf) }

func (w *BlockReader) tail() string { return string(w.buf) }

type event struct {
	Class string
	Raw   string
}

type line struct {
	Class   string
	Message string
}

type parser struct {
	events []event
	flag   bool
}

var lastRaw string
var cache = map[string]string{}
var ch = make(chan string, 1)

// mutant 1: store a buffer view straight into a package variable.
func scanGlobal(w *BlockReader) {
	lastRaw = w.Next() // want `stored into package variable lastRaw`
}

// mutant 2: store into a map that outlives every frame.
func scanMap(w *BlockReader) {
	raw := w.Next()
	cache["last"] = raw // want `element store of package variable cache`
}

// mutant 3: send the view to another goroutine.
func scanChan(w *BlockReader) {
	raw := w.Next()
	ch <- raw // want `sent on a channel`
}

func retain(s string) { lastRaw = s }

// mutant 4: the retention hides behind a helper call.
func scanHelper(w *BlockReader) {
	retain(w.Next()) // want `passed to retain`
}

func stash(s string) { retain(s) }

// mutant 5: two hops deep.
func scanTwoHops(w *BlockReader) {
	stash(w.Next()) // want `passed to stash`
}

func (p *parser) mineNoClone(ln line) {
	p.events = append(p.events, event{Class: ln.Class, Raw: ln.Message})
}

// mutant 6: the clone site was deleted outright.
func (p *parser) scanNoClone(w *BlockReader) {
	raw := w.Next()
	ln := line{Class: raw[:1], Message: raw[1:]}
	p.mineNoClone(ln) // want `passed to mineNoClone`
}

// mutant 7: the clone runs under a condition, so on the other branch
// the view is retained raw.
func (p *parser) scanConditionalClone(w *BlockReader) {
	msg := w.Next()
	if p.flag {
		msg = strings.Clone(msg)
	}
	p.events = append(p.events, event{Raw: msg}) // want `field events of p`
}

func (p *parser) minePartial(ln line) {
	ln.Class = strings.Clone(ln.Class)
	p.events = append(p.events, event{Class: ln.Class, Raw: ln.Message})
}

// mutant 8: only one of the two retained fields is cloned.
func (p *parser) scanPartial(w *BlockReader) {
	raw := w.Next()
	ln := line{Class: raw[:1], Message: raw[1:]}
	p.minePartial(ln) // want `passed to minePartial`
}

// mutant 9: the view escapes through a deferred closure.
func scanDeferred(w *BlockReader) {
	raw := w.Next()
	defer func() {
		lastRaw = raw // want `stored into package variable lastRaw`
	}()
}

// mutant 10: a substring of the view still aliases the buffer.
func scanSlice(w *BlockReader) {
	raw := w.Next()
	if len(raw) > 2 {
		cache["head"] = raw[:2] // want `element store of package variable cache`
	}
}

// mutant 11: the unterminated tail is retained like a block.
func (p *parser) scanTail(w *BlockReader) {
	p.events = append(p.events, event{Raw: w.tail()}) // want `field events of p`
}
