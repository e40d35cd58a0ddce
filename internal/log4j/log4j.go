// Package log4j emits and parses log lines in the format produced by the
// log4j library that both Hadoop/YARN and Spark use:
//
//	2017-07-02 10:00:00,123 INFO org.apache...RMAppImpl: <message>
//
// Timestamps have 1 ms precision — the paper notes this is therefore also
// the precision of SDchecker. The simulator writes through Sink so that a
// whole cluster's worth of daemon and container logs can be kept in memory
// during tests or spilled to a directory tree for the sdchecker CLI.
package log4j

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Level is a log severity. The simulator emits INFO like the real daemons
// do for state transitions.
type Level string

// Severity levels in the log4j vocabulary.
const (
	Info  Level = "INFO"
	Warn  Level = "WARN"
	Error Level = "ERROR"
	Debug Level = "DEBUG"
)

// Clock converts virtual sim time to wall-clock timestamps. EpochMS is the
// real epoch millisecond corresponding to sim time 0 (typically the
// cluster start timestamp embedded in YARN IDs).
type Clock struct {
	EpochMS int64
}

// Stamp renders the log4j timestamp for a virtual instant.
func (c Clock) Stamp(t sim.Time) string {
	var (
		sc  stampCache
		buf [32]byte
	)
	return string(sc.append(buf[:0], c.EpochMS+int64(t)))
}

// stampLayout is the seconds part of a log4j timestamp; a comma and the
// three millisecond digits follow it.
const stampLayout = "2006-01-02 15:04:05"

// stampCache holds the rendered stampLayout prefix of the second it
// stamped last. A sink's lines are logged in time order, so consecutive
// stamps nearly always share their second and skip time.Format. The
// zero value is empty.
type stampCache struct {
	sec    int64
	prefix []byte // nil until the first stamp
}

// append appends the log4j timestamp of epoch millisecond ms to b.
func (c *stampCache) append(b []byte, ms int64) []byte {
	if ms < 0 {
		// Before the epoch the second is the floor and the millis keep
		// their sign; nothing stamps there but tests.
		return fmt.Appendf(b, "%s,%03d", time.UnixMilli(ms).UTC().Format(stampLayout), ms%1000)
	}
	if sec := ms / 1000; c.prefix == nil || c.sec != sec {
		c.sec = sec
		c.prefix = time.Unix(sec, 0).UTC().AppendFormat(c.prefix[:0], stampLayout)
	}
	m := ms % 1000
	b = append(b, c.prefix...)
	return append(b, ',', byte('0'+m/100), byte('0'+m/10%10), byte('0'+m%10))
}

// appendLine appends the log4j layout of a line up to its message: stamp,
// level and class, single-space separated, then ": ".
func (c *stampCache) appendLine(b []byte, ms int64, level Level, class string) []byte {
	b = c.append(b, ms)
	b = append(b, ' ')
	b = append(b, level...)
	b = append(b, ' ')
	b = append(b, class...)
	return append(b, ':', ' ')
}

// ParseStamp inverts Stamp, returning epoch milliseconds.
func ParseStamp(s string) (int64, error) {
	// Layout: "2006-01-02 15:04:05,000" — split the millis off manually
	// because Go's reference layout has no comma separator for millis.
	comma := strings.LastIndexByte(s, ',')
	if comma < 0 || len(s)-comma != 4 {
		return 0, fmt.Errorf("log4j: malformed timestamp %q", s)
	}
	base, err := time.ParseInLocation("2006-01-02 15:04:05", s[:comma], time.UTC)
	if err != nil {
		return 0, fmt.Errorf("log4j: malformed timestamp %q: %v", s, err)
	}
	var millis int
	for _, r := range s[comma+1:] {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("log4j: malformed millis in %q", s)
		}
		millis = millis*10 + int(r-'0')
	}
	return base.UnixMilli() + int64(millis), nil
}

// Line is one parsed log line.
type Line struct {
	TimeMS  int64 // epoch milliseconds
	Level   Level
	Class   string
	Message string
}

// Format renders the line in log4j layout.
func (l Line) Format() string {
	var sc stampCache
	b := sc.appendLine(make([]byte, 0, 32+len(l.Level)+len(l.Class)+len(l.Message)), l.TimeMS, l.Level, l.Class)
	return string(append(b, l.Message...))
}

// ParseLine parses a log4j-layout line. Lines that do not match (stack
// traces, stdout noise) return an error; SDchecker skips them.
func ParseLine(s string) (Line, error) {
	// <date> <time,SSS> <LEVEL> <class>: <message>
	if len(s) < 24 {
		return Line{}, fmt.Errorf("log4j: line too short: %q", s)
	}
	stamp := s[:23]
	ms, err := ParseStamp(stamp)
	if err != nil {
		return Line{}, err
	}
	rest := strings.TrimLeft(s[23:], " ")
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return Line{}, fmt.Errorf("log4j: missing level in %q", s)
	}
	level := Level(rest[:sp])
	rest = rest[sp+1:]
	colon := strings.Index(rest, ": ")
	if colon < 0 {
		return Line{}, fmt.Errorf("log4j: missing class separator in %q", s)
	}
	return Line{
		TimeMS:  ms,
		Level:   level,
		Class:   rest[:colon],
		Message: rest[colon+2:],
	}, nil
}

// Sink collects log lines grouped by logical file path (e.g.
// "yarn/yarn-resourcemanager.log" or
// "userlogs/application_X_0001/container_X_0001_01_000002/stdout").
type Sink struct {
	clock Clock
	eng   *sim.Engine
	files map[string][]string
	order []string
	// Loggers build each line in line, stamped through stamp, and copy
	// it out once.
	line  []byte
	stamp stampCache
}

// NewSink creates a sink stamping lines with eng's clock mapped through
// clock.
func NewSink(eng *sim.Engine, clock Clock) *Sink {
	return &Sink{clock: clock, eng: eng, files: make(map[string][]string)}
}

// Clock returns the wall-clock mapping used by the sink.
func (s *Sink) Clock() Clock { return s.clock }

// Logger returns a logger bound to one file and emitting class.
func (s *Sink) Logger(file, class string) *Logger {
	return &Logger{sink: s, file: file, class: class}
}

// Append writes a raw line to file (used by Logger).
func (s *Sink) Append(file, line string) {
	lines, ok := s.files[file]
	if !ok {
		s.order = append(s.order, file)
	}
	s.files[file] = append(lines, line)
}

// Damaged returns a new sink holding s's files after cfg's lossy
// collection (DegradeConfig.Damage), listed in s's first-write order. A
// file the damage emptied is left out. The new sink shares no backing
// array with s, so later appends to either leave the other unchanged.
func (s *Sink) Damaged(cfg DegradeConfig) *Sink {
	d := NewSink(s.eng, s.clock)
	for _, f := range s.order {
		if lines := cfg.Damage(f, s.files[f]); len(lines) > 0 {
			d.order = append(d.order, f)
			d.files[f] = lines
		}
	}
	return d
}

// Files returns the logical file paths in first-write order.
func (s *Sink) Files() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Lines returns the raw lines of one file (nil if absent; not a copy).
func (s *Sink) Lines(file string) []string { return s.files[file] }

// TotalLines returns the number of lines across all files.
func (s *Sink) TotalLines() int {
	var n int
	for _, ls := range s.files {
		n += len(ls)
	}
	return n
}

// Reader returns an io.Reader over one file's content: its lines, each
// followed by a newline, or a lone newline for a file with no lines. It
// reads the lines in place and copies none of them.
func (s *Sink) Reader(file string) io.Reader {
	lines := s.files[file]
	if len(lines) == 0 {
		lines = emptyFile
	}
	return &linesReader{lines: lines}
}

// emptyFile is what Reader reads for a file with no lines: the one empty
// line strings.Join(nil, "\n")+"\n" renders.
var emptyFile = []string{""}

// linesReader reads lines joined by newlines, with a newline after the
// last one.
type linesReader struct {
	lines []string // lines[0] is the line being read
	off   int      // bytes of lines[0] already read
}

func (r *linesReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && len(r.lines) > 0 {
		if l := r.lines[0]; r.off < len(l) {
			c := copy(p[n:], l[r.off:])
			n += c
			r.off += c
			continue
		}
		p[n] = '\n'
		n++
		r.lines, r.off = r.lines[1:], 0
	}
	return n, nil
}

// WriteDir materializes all files under dir, creating subdirectories as
// needed. This is what cmd/simcluster uses to hand a log tree to the
// sdchecker CLI. Each file holds its lines, each followed by a newline.
//
// Files are written in place: an existing file is overwritten and cut to
// its new length, not truncated first, so a rewrite of a tree reuses its
// blocks. A file under dir that the sink does not hold is left as it is,
// so writing over a larger earlier tree mixes the two. Directories are
// made first, then the files are written on up to GOMAXPROCS goroutines.
// On failure the error names the first file in sorted order that could
// not be written, the one a serial writer would have stopped at, joined
// with any other failure met by then.
func (s *Sink) WriteDir(dir string) error {
	files := append([]string(nil), s.order...)
	sort.Strings(files)
	errs := make([]error, len(files))
	n := len(files) // files[:n] have their directories
	made := map[string]bool{}
	for i, f := range files {
		d := path.Dir(f)
		if made[d] {
			continue
		}
		if err := os.MkdirAll(filepath.Join(dir, filepath.FromSlash(d)), 0o755); err != nil {
			errs[i], n = fmt.Errorf("log4j: %s: %w", filepath.Join(dir, filepath.FromSlash(f)), err), i
			break
		}
		made[d] = true
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	// Files are handed out in sorted order and a worker stops taking
	// them after any failure, so every file before the first failure has
	// been written or has failed too.
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				buf = buf[:0]
				for _, line := range s.files[files[i]] {
					buf = append(buf, line...)
					buf = append(buf, '\n')
				}
				if err := writeInPlace(filepath.Join(dir, filepath.FromSlash(files[i])), buf); err != nil {
					errs[i] = fmt.Errorf("log4j: %w", err)
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeInPlace makes the file at name hold exactly b: it overwrites the
// file's bytes from its start, creating it if needed, and cuts it to
// len(b).
func writeInPlace(name string, b []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Truncate(int64(len(b)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Logger emits lines for a fixed (file, class) pair, stamped with the
// engine's current virtual time.
type Logger struct {
	sink  *Sink
	file  string
	class string
}

// Infof logs at INFO, the level YARN state machines log transitions at.
func (l *Logger) Infof(format string, args ...any) {
	l.logf(Info, format, args...)
}

// Warnf logs at WARN.
func (l *Logger) Warnf(format string, args ...any) {
	l.logf(Warn, format, args...)
}

// Errorf logs at ERROR.
func (l *Logger) Errorf(format string, args ...any) {
	l.logf(Error, format, args...)
}

func (l *Logger) logf(level Level, format string, args ...any) {
	s := l.sink
	b := s.stamp.appendLine(s.line[:0], s.clock.EpochMS+int64(s.eng.Now()), level, l.class)
	s.line = fmt.Appendf(b, format, args...)
	s.Append(l.file, string(s.line))
}

// Class returns the emitting class name.
func (l *Logger) Class() string { return l.class }

// File returns the destination file path.
func (l *Logger) File() string { return l.file }
