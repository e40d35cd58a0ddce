package log4j

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// pristineSink returns a sink holding n padded lines in each of files,
// written round-robin so that the files interleave.
func pristineSink(n int, files ...string) *Sink {
	s := NewSink(sim.NewEngine(), Clock{EpochMS: 1499000000000})
	for i := 0; i < n; i++ {
		for _, f := range files {
			s.Logger(f, "org.test.Class").Infof("message number %d with some padding to allow cuts", i)
		}
	}
	return s
}

// damagedLines returns what cfg leaves of n pristine lines in a.log.
func damagedLines(cfg DegradeConfig, n int) []string {
	return pristineSink(n, "a.log").Damaged(cfg).Lines("a.log")
}

func TestDegradeZeroConfigIsTransparent(t *testing.T) {
	s := pristineSink(10, "a.log")
	if got := s.Damaged(DegradeConfig{}).Lines("a.log"); !slices.Equal(got, s.Lines("a.log")) {
		t.Fatalf("zero config changed the lines:\n%q\nwant\n%q", got, s.Lines("a.log"))
	}
}

func TestDegradeDropLosesLines(t *testing.T) {
	got := len(damagedLines(DegradeConfig{DropProb: 0.5, Seed: 7}, 200))
	if got >= 200 || got == 0 {
		t.Fatalf("drop 0.5 kept %d of 200 lines", got)
	}
}

func TestDegradeTruncateCutsLines(t *testing.T) {
	lines := damagedLines(DegradeConfig{TruncateProb: 1, Seed: 7}, 50)
	if len(lines) != 50 {
		t.Fatalf("truncate changed line count: %d", len(lines))
	}
	short := 0
	for _, l := range lines {
		if !strings.HasSuffix(l, "cuts") {
			short++
		}
	}
	if short == 0 {
		t.Fatal("truncate 1.0 cut no lines")
	}
}

func TestDegradeTearGluesHalves(t *testing.T) {
	lines := damagedLines(DegradeConfig{TearProb: 1, Seed: 7}, 20)
	// Every line is torn, so each stored line after the first carries the
	// previous line's tail glued on. Total bytes are conserved.
	var stored, emitted int
	for _, l := range lines {
		stored += len(l)
	}
	for _, l := range pristineSink(20, "a.log").Lines("a.log") {
		emitted += len(l)
	}
	// The last torn tail is still pending, so stored <= emitted.
	if stored > emitted || stored == 0 {
		t.Fatalf("tear bytes: stored %d, emitted %d", stored, emitted)
	}
	glued := 0
	for _, l := range lines[1:] {
		if _, err := ParseLine(l); err != nil {
			glued++
		}
	}
	if glued == 0 {
		t.Fatal("tear 1.0 produced no glued unparseable lines")
	}
}

func TestDegradeSkewShiftsWholeFileConstantly(t *testing.T) {
	clean := pristineSink(5, "a.log")
	var offset int64
	for i, l := range clean.Damaged(DegradeConfig{SkewMaxMs: 5000, Seed: 3}).Lines("a.log") {
		got, err := ParseLine(l)
		if err != nil {
			t.Fatalf("skewed line %d unparseable: %v", i, err)
		}
		want, _ := ParseLine(clean.Lines("a.log")[i])
		d := got.TimeMS - want.TimeMS
		if i == 0 {
			offset = d
		} else if d != offset {
			t.Fatalf("skew not constant within file: line %d offset %d, want %d", i, d, offset)
		}
	}
	if offset == 0 {
		t.Log("drawn skew was 0; acceptable but not exercising the shift")
	}
	if offset < -5000 || offset > 5000 {
		t.Fatalf("skew %d outside ±5000ms", offset)
	}
}

func TestDegradeGarbageInsertsNoise(t *testing.T) {
	lines := damagedLines(DegradeConfig{GarbageProb: 1, Seed: 7}, 10)
	if len(lines) != 20 {
		t.Fatalf("garbage 1.0: got %d lines, want 20", len(lines))
	}
	if _, err := ParseLine(lines[0]); err == nil {
		t.Fatal("expected first line to be unparseable garbage")
	}
}

func TestDegradeDeterministic(t *testing.T) {
	cfg := DegradeConfig{DropProb: 0.2, TruncateProb: 0.2, TearProb: 0.2, SkewMaxMs: 1000, GarbageProb: 0.1, Seed: 42}
	a := pristineSink(100, "x.log", "y.log").Damaged(cfg)
	b := pristineSink(100, "x.log", "y.log").Damaged(cfg)
	for _, f := range []string{"x.log", "y.log"} {
		la, lb := a.Lines(f), b.Lines(f)
		if len(la) != len(lb) {
			t.Fatalf("%s: nondeterministic line count %d vs %d", f, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s line %d differs:\n%q\n%q", f, i, la[i], lb[i])
			}
		}
	}
}

func TestDegradePerFileStreamsIndependent(t *testing.T) {
	cfg := DegradeConfig{DropProb: 0.5, Seed: 9}
	// Writing to file B between writes to file A must not change what
	// happens to A's lines.
	la := pristineSink(50, "a.log").Damaged(cfg).Lines("a.log")
	lb := pristineSink(50, "a.log", "b.log").Damaged(cfg).Lines("a.log")
	if !slices.Equal(la, lb) {
		t.Fatalf("interleaving changed a.log: %d vs %d lines", len(la), len(lb))
	}
}

// TestDamagedKeepsFirstWriteOrder pins Damaged's file list: the source's
// first-write order, minus the files the damage emptied, each holding
// exactly what Damage leaves of it.
func TestDamagedKeepsFirstWriteOrder(t *testing.T) {
	var files []string
	for i := 9; i >= 0; i-- {
		files = append(files, fmt.Sprintf("f%d.log", i))
	}
	s := pristineSink(1, files...)
	cfg := DegradeConfig{DropProb: 0.5, Seed: 11}
	d := s.Damaged(cfg)
	var want []string
	for _, f := range s.Files() {
		lines := cfg.Damage(f, s.Lines(f))
		if len(lines) > 0 {
			want = append(want, f)
		}
		if got := d.Lines(f); !slices.Equal(got, lines) {
			t.Errorf("%s: damaged sink holds %q, Damage gives %q", f, got, lines)
		}
	}
	if got := d.Files(); !slices.Equal(got, want) {
		t.Fatalf("damaged files %v, want %v", got, want)
	}
	if len(want) == 0 || len(want) == len(files) {
		t.Fatalf("%d of %d one-line files survived; want some dropped and some kept", len(want), len(files))
	}
}

// TestDamagedSharesNoBackingArray appends to the damaged sink and then to
// its source: neither append may show in the other, even though a zero
// config copies every line and the source's slices have spare capacity.
func TestDamagedSharesNoBackingArray(t *testing.T) {
	s := pristineSink(3, "a.log", "b.log")
	want := slices.Clone(s.Lines("a.log"))
	d := s.Damaged(DegradeConfig{})
	for _, f := range d.Files() {
		d.Append(f, "damaged")
	}
	for _, f := range s.Files() {
		s.Append(f, "source")
	}
	s.Append("c.log", "source")
	for _, f := range []string{"a.log", "b.log"} {
		if got := d.Lines(f); len(got) != 4 || got[3] != "damaged" {
			t.Errorf("damaged %s = %q, want 3 lines then %q", f, got, "damaged")
		}
		if got := s.Lines(f); len(got) != 4 || got[3] != "source" {
			t.Errorf("source %s = %q, want 3 lines then %q", f, got, "source")
		}
	}
	if got := d.Lines("a.log")[:3]; !slices.Equal(got, want) {
		t.Errorf("damaged a.log = %q, want %q", got, want)
	}
	if got := d.Files(); !slices.Equal(got, []string{"a.log", "b.log"}) {
		t.Errorf("damaged files %v, want [a.log b.log]", got)
	}
}
