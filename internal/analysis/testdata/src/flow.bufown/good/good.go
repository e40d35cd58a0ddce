// Package good mirrors the zero-copy mining discipline of
// internal/core: every retention of BlockReader-derived memory passes
// through a sanctioned clone (strings.Clone, fmt.Sprintf).
package good

import (
	"fmt"
	"strings"
)

// BlockReader mirrors internal/core's file reader: Next and tail return
// views of its buffer the miners slice into line views, and a view
// that is kept reads bytes the next read writes over, so the ownership
// manifest declares both taint sources.
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
	warns  []string
}

func parseLine(seg string) line {
	return line{Class: seg[:1], Message: seg[1:]}
}

func (p *parser) emit(e event) { p.events = append(p.events, e) }

func (p *parser) warnf(format string, args ...any) {
	p.warns = append(p.warns, fmt.Sprintf(format, args...))
}

// mine is the sanctioned clone discipline: the strings that will be
// retained are cloned before emit, on every path.
func (p *parser) mine(ln line) {
	msg := strings.Clone(ln.Message)
	ln.Class = strings.Clone(ln.Class)
	p.emit(event{Class: ln.Class, Raw: msg})
}

func (p *parser) scan(w *BlockReader) {
	raw := w.Next()
	for i := 0; i+2 < len(raw); i += 2 {
		ln := parseLine(raw[i : i+2])
		p.mine(ln)
	}
	if tail := w.tail(); len(tail) > 2 {
		p.mine(parseLine(tail))
	}
}

// scanCount only derives scalars from the buffer: nothing to clone.
func (p *parser) scanCount(w *BlockReader) int {
	raw := w.Next()
	n := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\n' {
			n++
		}
	}
	return n
}

// scanWarn retains only Sprintf output, which copies its operands.
func (p *parser) scanWarn(w *BlockReader) {
	raw := w.Next()
	if len(raw) == 0 {
		p.warnf("empty blob: %s", raw)
	}
}

// scanConvert round-trips through []byte, which copies both ways.
func (p *parser) scanConvert(w *BlockReader) {
	bs := []byte(w.Next())
	p.emit(event{Raw: string(bs)})
}

// scanLocal keeps buffer views in frame-local state only.
func scanLocal(w *BlockReader) string {
	raw := w.Next()
	var parts []string
	for i := 0; i+1 < len(raw); i += 2 {
		parts = append(parts, raw[i:i+2])
	}
	return strings.Join(parts, ",") // Join allocates a fresh string
}
