package log4j

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestStampFormat(t *testing.T) {
	c := Clock{EpochMS: 1499000000000} // 2017-07-02 12:53:20 UTC
	got := c.Stamp(0)
	if got != "2017-07-02 12:53:20,000" {
		t.Fatalf("stamp=%q", got)
	}
	if got := c.Stamp(1234); got != "2017-07-02 12:53:21,234" {
		t.Fatalf("stamp(+1234)=%q", got)
	}
}

// TestStampCacheMatchesTimeFormat checks one reused stamp cache, as a
// sink holds it, against time.Format over runs of stamps that stay in a
// second, step to the next, jump back and forth, and cross the epoch and
// year 10000.
func TestStampCacheMatchesTimeFormat(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var sc stampCache
	ms := int64(1499000000000)
	for i := 0; i < 20000; i++ {
		switch rnd.Intn(8) {
		case 0:
			ms = rnd.Int63n(400_000_000_000_000) - 1_000_000 // around the epoch to beyond year 10000
		case 1:
			ms -= rnd.Int63n(5000)
		default:
			ms += rnd.Int63n(700)
		}
		want := fmt.Sprintf("%s,%03d", time.UnixMilli(ms).UTC().Format("2006-01-02 15:04:05"), ms%1000)
		if got := string(sc.append(nil, ms)); got != want {
			t.Fatalf("stamp of %d is %q, want %q", ms, got, want)
		}
	}
}

func TestParseStampRoundTrip(t *testing.T) {
	c := Clock{EpochMS: 1499000000000}
	for _, offset := range []sim.Time{0, 1, 999, 1000, 86_400_000, 12_345_678} {
		s := c.Stamp(offset)
		ms, err := ParseStamp(s)
		if err != nil {
			t.Fatalf("ParseStamp(%q): %v", s, err)
		}
		if ms != c.EpochMS+int64(offset) {
			t.Fatalf("round trip %q: got %d, want %d", s, ms, c.EpochMS+int64(offset))
		}
	}
}

func TestPropertyStampRoundTrip(t *testing.T) {
	c := Clock{EpochMS: 1499000000000}
	f := func(offset uint32) bool {
		s := c.Stamp(sim.Time(offset))
		ms, err := ParseStamp(s)
		return err == nil && ms == c.EpochMS+int64(offset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseStampErrors(t *testing.T) {
	for _, bad := range []string{"", "2017-07-02 13:33:20", "2017-07-02 13:33:20.000", "garbage,123", "2017-07-02 13:33:20,abc"} {
		if _, err := ParseStamp(bad); err == nil {
			t.Errorf("ParseStamp(%q) accepted", bad)
		}
	}
}

func TestParseLine(t *testing.T) {
	raw := "2017-07-02 12:53:21,234 INFO org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl: application_1 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"
	l, err := ParseLine(raw)
	if err != nil {
		t.Fatal(err)
	}
	if l.Level != Info {
		t.Fatalf("level=%q", l.Level)
	}
	if !strings.HasSuffix(l.Class, "RMAppImpl") {
		t.Fatalf("class=%q", l.Class)
	}
	if !strings.HasPrefix(l.Message, "application_1 State change") {
		t.Fatalf("message=%q", l.Message)
	}
	if l.TimeMS != 1499000001234 {
		t.Fatalf("time=%d", l.TimeMS)
	}
}

func TestLineFormatParseRoundTrip(t *testing.T) {
	l := Line{TimeMS: 1499000001234, Level: Warn, Class: "a.b.C", Message: "hello: world"}
	got, err := ParseLine(l.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("round trip: got %+v, want %+v", got, l)
	}
}

func TestParseLineRejectsJunk(t *testing.T) {
	for _, bad := range []string{"", "short", "java.lang.NullPointerException", "\tat org.apache.Foo.bar(Foo.java:42)"} {
		if _, err := ParseLine(bad); err == nil {
			t.Errorf("ParseLine(%q) accepted", bad)
		}
	}
}

func TestSinkLoggerAndOrdering(t *testing.T) {
	eng := sim.NewEngine()
	sink := NewSink(eng, Clock{EpochMS: 1499000000000})
	rm := sink.Logger("rm.log", "a.RMAppImpl")
	nm := sink.Logger("nm.log", "a.ContainerImpl")
	eng.At(10, func() { rm.Infof("first %d", 1) })
	eng.At(20, func() { nm.Warnf("warn") })
	eng.At(30, func() { rm.Errorf("boom") })
	eng.Run()

	if got := sink.Files(); len(got) != 2 || got[0] != "rm.log" {
		t.Fatalf("files=%v", got)
	}
	lines := sink.Lines("rm.log")
	if len(lines) != 2 {
		t.Fatalf("rm.log has %d lines", len(lines))
	}
	l0, err := ParseLine(lines[0])
	if err != nil || l0.Message != "first 1" || l0.Level != Info {
		t.Fatalf("line0=%+v err=%v", l0, err)
	}
	l1, _ := ParseLine(lines[1])
	if l1.Level != Error {
		t.Fatalf("line1 level=%q", l1.Level)
	}
	if sink.TotalLines() != 3 {
		t.Fatalf("total=%d", sink.TotalLines())
	}
}

// TestSinkReader: a file reads as its lines joined by newlines with a
// newline after the last, a lone newline for no lines, through small
// and odd-sized reads alike.
func TestSinkReader(t *testing.T) {
	sink := NewSink(sim.NewEngine(), Clock{EpochMS: 0})
	sink.Logger("f.log", "C").Infof("x")
	sink.Append("one", "a single line")
	for _, l := range []string{"", "first", "", "", "after two empty", ""} {
		sink.Append("gaps", l)
	}
	sink.Append("blank", "")
	for i := range 300 {
		sink.Append("long", strings.Repeat(string(rune('a'+i%26)), i))
	}
	for _, f := range []string{"f.log", "one", "gaps", "blank", "long", "absent"} {
		want := strings.Join(sink.Lines(f), "\n") + "\n"
		got, err := io.ReadAll(sink.Reader(f))
		if err != nil || string(got) != want {
			t.Errorf("%s: read %q, %v; want %q", f, got, err, want)
		}
		if err := iotest.TestReader(sink.Reader(f), []byte(want)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestSinkReaderAllocs: reading a file allocates the reader and nothing
// that grows with the file.
func TestSinkReaderAllocs(t *testing.T) {
	sink := NewSink(sim.NewEngine(), Clock{EpochMS: 0})
	sink.Append("small", "x")
	line := strings.Repeat("y", 120)
	for range 20000 {
		sink.Append("large", line)
	}
	buf := make([]byte, 4096)
	for _, f := range []string{"small", "large"} {
		// The least of three trials, so that what the runtime allocates
		// meanwhile on other goroutines is not counted against the reader.
		per := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			const runs = 10
			runtime.GC()
			runtime.ReadMemStats(&before)
			for range runs {
				r := sink.Reader(f)
				for {
					if _, err := r.Read(buf); err == io.EOF {
						break
					}
				}
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		// Measured 48 B in one allocation for either file: the reader.
		if per > 256 {
			t.Errorf("%s: reading %d lines allocated %d B per read, want at most 256", f, len(sink.Lines(f)), per)
		}
	}
}

// fileBytes is the content WriteDir gives a file of lines.
func fileBytes(lines []string) string { return strings.Join(lines, "\n") + "\n" }

func TestWriteDirRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	sink := NewSink(eng, Clock{EpochMS: 1499000000000})
	sink.Logger("hadoop/rm.log", "C").Infof("hello")
	sink.Logger("userlogs/app/container_1_0001_01_000001/stderr", "D").Infof("world")

	dir := t.TempDir()
	if err := sink.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "hadoop", "rm.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hello") {
		t.Fatalf("rm.log content: %q", data)
	}
	if _, err := os.Stat(filepath.Join(dir, "userlogs", "app", "container_1_0001_01_000001", "stderr")); err != nil {
		t.Fatal(err)
	}
}

// TestWriteDirRewritesInPlace writes a second sink over a first one's
// tree: files that shrink, grow or keep their length hold exactly the
// second sink's bytes, and a file only the first held is left as it was.
func TestWriteDirRewritesInPlace(t *testing.T) {
	eng := sim.NewEngine()
	first, second := NewSink(eng, Clock{}), NewSink(eng, Clock{})
	first.Append("hadoop/shrinks.log", strings.Repeat("long line ", 50))
	first.Append("hadoop/shrinks.log", "and another")
	second.Append("hadoop/shrinks.log", "short")
	first.Append("userlogs/app/c1/stderr", "short")
	second.Append("userlogs/app/c1/stderr", strings.Repeat("grown ", 2000))
	second.Append("userlogs/app/c1/stderr", "")
	second.Append("userlogs/app/c1/stderr", "tail")
	first.Append("userlogs/app/c2/stdout", "same length A")
	second.Append("userlogs/app/c2/stdout", "same length B")
	first.Append("userlogs/app/c3/stderr", "only in the first sink")

	dir := t.TempDir()
	for _, s := range []*Sink{first, second} {
		if err := s.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"userlogs/app/c3/stderr": fileBytes(first.Lines("userlogs/app/c3/stderr"))}
	for _, f := range second.Files() {
		want[f] = fileBytes(second.Lines(f))
	}
	sameTree(t, readTree(t, dir), want)
}

// sameTree reports each file whose bytes in got differ from want, and
// each file only one of them holds.
func sameTree(t *testing.T, got, want map[string]string) {
	t.Helper()
	for f, w := range want {
		if g, ok := got[f]; !ok {
			t.Errorf("%s is missing", f)
		} else if g != w {
			t.Errorf("%s holds %d bytes %.60q..., want %d bytes %.60q...", f, len(g), g, len(w), w)
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("%s is not expected", f)
		}
	}
}

// TestWriteDirSameAtAnyWorkerCount writes a tree and rewrites it with a
// second sink at GOMAXPROCS 1 and 4: the trees are byte-identical.
func TestWriteDirSameAtAnyWorkerCount(t *testing.T) {
	first, second := syntheticSink(300, 3, 0), syntheticSink(300, 3, 1)
	var trees []map[string]string
	for _, procs := range []int{1, 4} {
		dir := t.TempDir()
		old := runtime.GOMAXPROCS(procs)
		err1, err2 := first.WriteDir(dir), second.WriteDir(dir)
		runtime.GOMAXPROCS(old)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		trees = append(trees, readTree(t, dir))
	}
	want := map[string]string{}
	for _, f := range second.Files() {
		want[f] = fileBytes(second.Lines(f))
	}
	sameTree(t, trees[0], want)
	sameTree(t, trees[1], trees[0])
}

// TestWriteDirErrors: a file whose parent path is a regular file, or
// whose own path is a directory, fails with an error that names it
// first among the failures; the files sorted before it are written.
func TestWriteDirErrors(t *testing.T) {
	sink := NewSink(sim.NewEngine(), Clock{})
	for i := range 10 {
		sink.Append(fmt.Sprintf("d/f%02d", i), "line")
	}
	sink.Append("e/under-a-file.log", "line")
	for _, tc := range []struct {
		name    string
		prepare func(dir string) error
		failing string // the first file that cannot be written
	}{
		{"parent is a file", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "e"), []byte("x"), 0o644)
		}, "e/under-a-file.log"},
		{"path is a directory", func(dir string) error {
			for _, f := range []string{"d/f07", "d/f03"} {
				if err := os.MkdirAll(filepath.Join(dir, filepath.FromSlash(f)), 0o755); err != nil {
					return err
				}
			}
			return nil
		}, "d/f03"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			dir := t.TempDir()
			if err := tc.prepare(dir); err != nil {
				t.Fatal(err)
			}
			err := sink.WriteDir(dir)
			if err == nil {
				t.Fatal("WriteDir succeeded")
			}
			first, _, _ := strings.Cut(err.Error(), "\n")
			if want := filepath.Join(dir, filepath.FromSlash(tc.failing)); !strings.Contains(first, want) {
				t.Errorf("first error %q does not name %s", first, want)
			}
			for _, f := range sink.Files() {
				if f >= tc.failing {
					continue
				}
				if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f))); err != nil || string(b) != "line\n" {
					t.Errorf("%s before the failure: %q, %v", f, b, err)
				}
			}
		})
	}
}

// readTree returns every regular file under dir by its slash path
// relative to dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[filepath.ToSlash(rel)] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// syntheticSink returns a sink shaped like a simulated cluster's:
// two daemon logs and apps*perApp container files in nested
// directories. Variant v changes every line's bytes and length.
func syntheticSink(apps, perApp, v int) *Sink {
	s := NewSink(sim.NewEngine(), Clock{})
	filler := strings.Repeat("x", 7*v)
	for a := range apps {
		for c := range perApp {
			f := fmt.Sprintf("userlogs/application_1499000000000_%04d/container_1499000000000_%04d_01_%06d/stderr", a+1, a+1, c+1)
			for l := range 4 + (a+c+v)%5 {
				s.Append(f, fmt.Sprintf("2017-07-02 12:53:2%d,%03d INFO x.Y: line %d of %s%s", l%10, a%1000, l, f, filler))
			}
			s.Append("hadoop/yarn-resourcemanager.log", fmt.Sprintf("2017-07-02 12:53:20,000 INFO x.RMAppImpl: app %d container %d%s", a, c, filler))
			s.Append("hadoop/yarn-nodemanager-node01.log", fmt.Sprintf("2017-07-02 12:53:20,000 INFO x.ContainerImpl: app %d container %d", a, c))
		}
	}
	return s
}

// BenchmarkSinkWriteDir writes a synthetic tree of ~3,000 files into an
// empty directory (fresh) and over the same tree (rewrite).
func BenchmarkSinkWriteDir(b *testing.B) {
	sink := syntheticSink(1000, 3, 0)
	b.Run("fresh", func(b *testing.B) {
		root := b.TempDir()
		for i := 0; i < b.N; i++ {
			if err := sink.WriteDir(filepath.Join(root, strconv.Itoa(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		dir := b.TempDir()
		if err := sink.WriteDir(dir); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.WriteDir(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}
