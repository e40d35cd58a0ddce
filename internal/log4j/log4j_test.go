package log4j

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestSinkReader(t *testing.T) {
	eng := sim.NewEngine()
	sink := NewSink(eng, Clock{EpochMS: 0})
	sink.Logger("f.log", "C").Infof("x")
	sc := bufio.NewScanner(sink.Reader("f.log"))
	n := 0
	for sc.Scan() {
		if sc.Text() != "" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("reader yielded %d lines", n)
	}
}

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
