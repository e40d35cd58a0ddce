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
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	deg   *degrader
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

// Degrade installs a lossy-collection model on the sink: every line
// subsequently appended passes through cfg's drop/truncate/tear/skew
// transformations before being stored. A zero config removes the model.
func (s *Sink) Degrade(cfg DegradeConfig) {
	if !cfg.enabled() {
		s.deg = nil
		return
	}
	s.deg = newDegrader(cfg)
}

// Append writes a raw line to file (used by Logger). With a degradation
// model installed, the line may be dropped, cut, torn across writes, or
// time-shifted on the way in.
func (s *Sink) Append(file, line string) {
	if s.deg != nil {
		for _, raw := range s.deg.transform(file, line) {
			s.append(file, raw)
		}
		return
	}
	s.append(file, line)
}

func (s *Sink) append(file, line string) {
	lines, ok := s.files[file]
	if !ok {
		s.order = append(s.order, file)
	}
	s.files[file] = append(lines, line)
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

// Reader returns an io.Reader over one file's content.
func (s *Sink) Reader(file string) io.Reader {
	return strings.NewReader(strings.Join(s.files[file], "\n") + "\n")
}

// WriteDir materializes all files under dir, creating subdirectories as
// needed. This is what cmd/simcluster uses to hand a log tree to the
// sdchecker CLI.
func (s *Sink) WriteDir(dir string) error {
	files := append([]string(nil), s.order...)
	sort.Strings(files)
	for _, f := range files {
		path := filepath.Join(dir, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("log4j: %w", err)
		}
		w, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("log4j: %w", err)
		}
		bw := bufio.NewWriter(w)
		for _, line := range s.files[f] {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
		if err := bw.Flush(); err != nil {
			w.Close()
			return fmt.Errorf("log4j: flushing %s: %w", path, err)
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("log4j: closing %s: %w", path, err)
		}
	}
	return nil
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
