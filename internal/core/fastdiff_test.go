package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// This file is the dynamic half of the fast-path equivalence proof: the
// byte-level matcher and the regexp reference (ParseReference) are run
// side by side over the same input and must agree on everything
// observable — events, warnings, error text, line counts, and every
// per-regex hit counter. (The static half lives in sdlint's logvocab
// analyzer, which proves each fast rule language-equal to its regex.)

var diffSources = []string{
	"hadoop/yarn-resourcemanager.log",
	"hadoop/yarn-nodemanager-node01.log",
	"userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000001/stderr",
}

// parserOutputs is everything a one-file parse exposes.
type parserOutputs struct {
	events       []Event
	warns        []string
	err          string
	files, lines int
	hits         map[string]int64
}

func collectOutputs(p *Parser, err error, reg *metrics.Registry) parserOutputs {
	out := parserOutputs{events: p.Events(), warns: p.Warnings(), hits: make(map[string]int64, len(regexNames)+1)}
	if err != nil {
		out.err = err.Error()
	}
	out.files, out.lines = p.Stats()
	for _, n := range regexNames {
		out.hits[n] = reg.Counter("core_parser_hits_total", "regex", n).Value()
	}
	out.hits["__lines"] = reg.Counter("core_parser_lines_total").Value()
	return out
}

// errShapeRead is the read error the failing reader shapes end with.
var errShapeRead = errors.New("injected read error")

// lastReadErr reads r and returns err together with its last piece of
// data, as iotest.DataErrReader does but in reads as large as asked for.
type lastReadErr struct {
	r   *bytes.Reader
	err error
}

func (l *lastReadErr) Read(p []byte) (int, error) {
	n, _ := l.r.Read(p)
	if l.r.Len() == 0 {
		return n, l.err
	}
	return n, nil
}

// readerShape is one way ParseReader can be handed a file's bytes. The
// reference parses the same bytes through ref: a bytes.Reader, or for a
// failing shape an identically failing reader.
type readerShape struct {
	name      string
	fast, ref func() io.Reader
}

// readerShapes lists the reader shapes ParseReader's BlockReader must
// read alike: in-memory readers (bytes.Reader, strings.Reader), a
// temp-file *os.File, readers that return short reads
// (iotest.OneByteReader and HalfReader) or EOF with the last data, and
// readers that fail after k bytes, at k = 0, mid-file and at the end,
// with the error arriving after the data or together with its last
// piece.
func readerShapes(t *testing.T, data []byte) []readerShape {
	t.Helper()
	whole := func() io.Reader { return bytes.NewReader(data) }
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	shapes := []readerShape{
		{name: "bytes.Reader", fast: whole},
		{name: "strings.Reader", fast: func() io.Reader { return strings.NewReader(string(data)) }},
		{name: "os.File", fast: func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{name: "HalfReader", fast: func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) }},
		{name: "EOF with the data", fast: func() io.Reader { return &lastReadErr{bytes.NewReader(data), io.EOF} }},
	}
	if len(data) <= 64<<10 {
		// Past this, byte-at-a-time reads test nothing HalfReader does
		// not, and take seconds under -race.
		shapes = append(shapes, readerShape{name: "OneByteReader", fast: func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }})
	}
	for _, k := range []int{0, len(data) / 2, len(data)} {
		failing := func() io.Reader { return io.MultiReader(bytes.NewReader(data[:k]), iotest.ErrReader(errShapeRead)) }
		withData := func() io.Reader { return &lastReadErr{bytes.NewReader(data[:k]), errShapeRead} }
		shapes = append(shapes,
			readerShape{name: fmt.Sprintf("fails after %d bytes", k), fast: failing, ref: failing},
			readerShape{name: fmt.Sprintf("fails with the data after %d bytes", k), fast: withData, ref: withData})
	}
	for i := range shapes {
		if shapes[i].ref == nil {
			shapes[i].ref = whole
		}
	}
	return shapes
}

// diffParsers asserts the fast parser and the reference are
// observationally identical on one input file, through every reader
// shape. An uninstrumented fast parser, which skips daemon lines
// without the prescreen byte before parsing them, must mine what the
// instrumented one mines, which parses and counts every line.
func diffParsers(t *testing.T, name string, data []byte) {
	t.Helper()
	parseFast := func(open func() io.Reader, reg *metrics.Registry) (*Parser, error) {
		p := NewParser()
		p.Instrument(reg)
		r := open()
		err := p.ParseReader(name, r)
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
		return p, err
	}
	for _, sh := range readerShapes(t, data) {
		freg := metrics.NewRegistry()
		fp, ferr := parseFast(sh.fast, freg)
		f := collectOutputs(fp, ferr, freg)
		rreg := metrics.NewRegistry()
		rp, rerr := ParseReference(name, sh.ref(), rreg)
		diffOutputs(t, name+" ("+sh.name+")", "fast", "regex", f, collectOutputs(rp, rerr, rreg))
		// The uninstrumented parser counts no hits, so its outputs take
		// the instrumented parser's registry: only the rest can differ.
		up, uerr := parseFast(sh.fast, nil)
		diffOutputs(t, name+" ("+sh.name+")", "uninstrumented", "instrumented", collectOutputs(up, uerr, freg), f)
	}
}

// diffOutputs fails t at the first output where parser a's outputs
// diverge from parser b's.
func diffOutputs(t *testing.T, where, an, bn string, a, b parserOutputs) {
	t.Helper()
	if a.err != b.err {
		t.Fatalf("%s: error diverges: %s=%q %s=%q", where, an, a.err, bn, b.err)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%s: %s mined %d events, %s %d", where, an, len(a.events), bn, len(b.events))
	}
	// DeepEqual follows the Submission pointer, so two APP_SUMMARY
	// events agree when their summaries hold the same strings.
	for i := range a.events {
		if ea, eb := a.events[i], b.events[i]; !reflect.DeepEqual(ea, eb) {
			t.Fatalf("%s: event %d diverges:\n%s: %+v %+v\n%s: %+v %+v", where, i, an, ea, ea.summary(), bn, eb, eb.summary())
		}
	}
	if !reflect.DeepEqual(a.warns, b.warns) {
		t.Fatalf("%s: warnings diverge:\n%s: %q\n%s: %q", where, an, a.warns, bn, b.warns)
	}
	if a.files != b.files || a.lines != b.lines {
		t.Fatalf("%s: stats diverge: %s=(%d files, %d lines) %s=(%d, %d)", where, an, a.files, a.lines, bn, b.files, b.lines)
	}
	if !reflect.DeepEqual(a.hits, b.hits) {
		t.Fatalf("%s: hit counters diverge:\n%s: %v\n%s: %v", where, an, a.hits, bn, b.hits)
	}
}

// diffRouting asserts the sharded stream's routing helpers agree with
// their regexes on every line of data, used both as a line body and as
// a source path.
func diffRouting(t *testing.T, data string) {
	t.Helper()
	for _, ln := range strings.Split(data, "\n") {
		fapp, fok := fastAppInLine(ln)
		var rapp ids.AppID
		rok := false
		if m := reAppInLine.FindStringSubmatch(ln); m != nil {
			cts, err1 := strconv.ParseInt(m[1], 10, 64)
			seq, err2 := strconv.Atoi(m[2])
			rapp, rok = ids.AppID{ClusterTS: cts, Seq: seq}, err1 == nil && err2 == nil
		}
		if fok != rok || (fok && fapp != rapp) {
			t.Fatalf("app-in-line diverges on %q: fast=(%v, %v) regex=(%v, %v)", ln, fapp, fok, rapp, rok)
		}

		fcid, ffound, ferr := fastFindContainerID(ln)
		var rcid ids.ContainerID
		var rerr error
		cidStr := reContainerInPath.FindString(ln)
		if cidStr != "" {
			rcid, rerr = ids.ParseContainerID(cidStr)
		}
		if ffound != (cidStr != "") || (ferr == nil) != (rerr == nil) || (ffound && ferr == nil && fcid != rcid) {
			t.Fatalf("container-in-path diverges on %q: fast=(%v, %v, %v) regex=(%q, %v, %v)", ln, fcid, ffound, ferr, cidStr, rcid, rerr)
		}
	}
}

// diffStreams asserts the fast stream agrees with a reference stream
// whose lines are parsed by ParseReference and absorbed through
// absorbRouted, which applies the stream's FIRST_LOG/FIRST_TASK dedup the
// same way the sharded path does. The fast path splits a fed line with
// segmentIter and the reference with its own splitter, so this is
// checked separately from the file parse.
func diffStreams(t *testing.T, sources []string, lines []string) {
	t.Helper()
	fast := NewStream()
	ref := NewStream()
	for i, ln := range lines {
		src := sources[i%len(sources)]
		fast.Feed(src, ln)
		if p, err := ParseReference(src, strings.NewReader(ln), nil); err == nil {
			ref.absorbRouted(p.Events())
		}
	}
	fn, fms, frep := fast.EventCount(), fast.lastMS, fast.Report().Format()
	rn, rms, rrep := ref.EventCount(), ref.lastMS, ref.Report().Format()
	if fn != rn || fms != rms {
		t.Fatalf("stream diverges: fast=(%d events, last %d) regex=(%d, %d)", fn, fms, rn, rms)
	}
	if frep != rrep {
		t.Fatalf("stream report diverges:\nfast:\n%s\nregex:\n%s", frep, rrep)
	}
}

// FuzzFastVsRegex is the differential fuzz target of the equivalence
// proof: arbitrary bytes — and a deterministically degraded (torn,
// truncated, skewed, garbage-injected) variant of them — go through the
// fast parser and the reference, the fast and reference stream paths,
// and the sharded stream's routing helpers, which must agree byte for
// byte on every output.
func FuzzFastVsRegex(f *testing.F) {
	seedCorpusWorkers(f)
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		name := diffSources[int(n)%len(diffSources)]
		diffParsers(t, name, data)
		diffRouting(t, string(data))

		// The same bytes after lossy collection (cmd/gencorpus's model),
		// seeded from the fuzzed byte for deterministic variety.
		sink := log4j.NewSink(nil, log4j.Clock{})
		sink.Degrade(log4j.DegradeConfig{
			TruncateProb: 0.2,
			TearProb:     0.2,
			GarbageProb:  0.1,
			SkewMaxMs:    5000,
			Seed:         uint64(n),
		})
		for _, ln := range strings.Split(string(data), "\n") {
			sink.Append(name, ln)
		}
		mangled := strings.Join(sink.Lines(name), "\n")
		diffParsers(t, name, []byte(mangled))

		// Line-interleaved and whole-blob stream feeds: the latter makes
		// the fast path's segment iterator split embedded newlines.
		diffStreams(t, diffSources, strings.Split(string(data), "\n"))
		diffStreams(t, diffSources[int(n)%len(diffSources):], []string{string(data), mangled})
	})
}

// TestFastVsRegexCorpus replays every checked-in corpus file — real
// simulator output, including the model-checker traces and degraded
// variants — through the differential harness as named subtests, so a
// divergence points at the offending file without needing -fuzz.
func TestFastVsRegexCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, src := range diffSources {
				diffParsers(t, src, data)
			}
			diffRouting(t, string(data))
			diffStreams(t, diffSources, strings.Split(string(data), "\n"))
		})
	}
}

// TestFastVsRegexLongLines runs lines at the 4 MiB line cap through the
// differential harness on a daemon and a container path: one byte under
// the cap, at it, at it only with its '\r', and an unterminated last
// line, each followed or preceded by ordinary mined lines so a
// divergence in what survives the cap shows up as events. A line at the
// cap is skipped with one warning, never an error.
func TestFastVsRegexLongLines(t *testing.T) {
	first := log4j.Line{
		TimeMS:  1499000000100,
		Level:   log4j.Info,
		Class:   "org.apache.spark.deploy.yarn.ApplicationMaster",
		Message: "Registered with ResourceManager",
	}.Format()
	rm := log4j.Line{
		TimeMS:  1499000000200,
		Level:   log4j.Info,
		Class:   "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl",
		Message: "container_1499000000000_0001_01_000001 Container Transitioned from NEW to ALLOCATED",
	}.Format()
	long := func(n int) string {
		prefix := first[:len(first)-len("Registered with ResourceManager")] + "SDCHECKER START_ALLO "
		return prefix + strings.Repeat("x", n-len(prefix))
	}
	cases := []struct {
		name    string
		data    string
		skipped bool
	}{
		{"under the cap", first + "\n" + long(MaxLineBytes-1) + "\n" + rm + "\n", false},
		{"at the cap", first + "\n" + rm + "\n" + long(MaxLineBytes) + "\n" + rm + "\n", true},
		{"at the cap with CR", first + "\n" + long(MaxLineBytes-1) + "\r\n" + rm + "\n", true},
		{"unterminated last", rm + "\n" + first + "\n" + long(MaxLineBytes-1), false},
		{"unterminated over cap", rm + "\n" + first + "\n" + long(MaxLineBytes+10), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, src := range []string{diffSources[0], diffSources[2]} {
				p := NewParser()
				if err := p.ParseReader(src, strings.NewReader(c.data)); err != nil {
					t.Fatalf("%s: ParseReader error %v, want nil", src, err)
				}
				skips := 0
				for _, w := range p.Warnings() {
					if strings.HasPrefix(w, src+": skipped 1 line(s) of 4194304 bytes or more") {
						skips++
					}
				}
				want := 0
				if c.skipped {
					want = 1
				}
				if skips != want {
					t.Fatalf("%s: %d skip warnings in %q, want %d", src, skips, p.Warnings(), want)
				}
				diffParsers(t, src, []byte(c.data))
			}
		})
	}
}

// TestFastVsRegexMultiChunk runs a file of several read chunks through
// the differential harness on a daemon and a container path: ordinary
// RM lines, a CRLF pair whose '\r' ends the first 1 MiB chunk and whose
// '\n' starts the second, a line of exactly MaxLineBytes, more RM lines
// past 6 MiB, and an unterminated last line. Every reader shape,
// failing ones included, must match the reference, and the parse must
// leave the parser's read buffer at one chunk: only an unfinished line
// grows it, never a whole file.
func TestFastVsRegexMultiChunk(t *testing.T) {
	rm := func(i int) string {
		return log4j.Line{
			TimeMS:  1499000000000 + int64(i),
			Level:   log4j.Info,
			Class:   "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl",
			Message: fmt.Sprintf("container_1499000000000_0001_01_%06d Container Transitioned from NEW to ALLOCATED", i),
		}.Format()
	}
	var b strings.Builder
	i := 0
	for b.Len() < readChunk-2*len(rm(i)) {
		b.WriteString(rm(i) + "\n")
		i++
	}
	// Pad the next line so its '\r' is the chunk's last byte.
	b.WriteString(rm(i) + strings.Repeat(" ", readChunk-1-b.Len()-len(rm(i))) + "\r\n")
	i++
	prefix := rm(i)[:len(rm(i))-len("Container Transitioned from NEW to ALLOCATED")]
	b.WriteString(prefix + strings.Repeat("x", MaxLineBytes-len(prefix)) + "\n")
	for b.Len() < 6<<20 {
		b.WriteString(rm(i) + "\n")
		i++
	}
	b.WriteString(rm(i))
	data := []byte(b.String())
	if data[readChunk-1] != '\r' || data[readChunk] != '\n' {
		t.Fatalf("no CRLF pair across the first chunk boundary")
	}

	for _, src := range []string{diffSources[0], diffSources[2]} {
		diffParsers(t, src, data)
		p := NewParser()
		if err := p.ParseReader(src, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if len(p.rd.buf) != readChunk {
			t.Fatalf("%s: read buffer is %d bytes after the parse, want %d", src, len(p.rd.buf), readChunk)
		}
	}
}
