package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
)

func writeLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		appendRaw(t, path, l+"\n")
	}
}

func mkLine(off int64, class, msg string) string {
	return log4j.Line{TimeMS: 1499000000000 + off, Level: log4j.Info, Class: class, Message: msg}.Format()
}

func TestDrainFileIncremental(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	app := "application_1499000000000_0001"

	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	writeLines(t, rm, mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	fed, err := sc.drainFile(rm, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("first drain: fed=%v err=%v", fed, err)
	}
	// No growth: nothing new.
	fed, err = sc.drainFile(rm, "rm.log")
	if err != nil || fed != 0 {
		t.Fatalf("idle drain reported change: %v %v", fed, err)
	}
	// Append: only the new line is consumed.
	writeLines(t, rm, mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"))
	fed, err = sc.drainFile(rm, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("append drain: fed=%v err=%v", fed, err)
	}
	st.Quiesce()
	if sc.st.EventCount() != 2 {
		t.Fatalf("events=%d, want 2 (no re-reads)", sc.st.EventCount())
	}
	a := sc.st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
}

func TestDrainFileContainerLog(t *testing.T) {
	dir := t.TempDir()
	rel := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	abs := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		t.Fatal(err)
	}
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	writeLines(t, abs, mkLine(7000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	if fed, err := sc.drainFile(abs, rel); err != nil || fed != 1 {
		t.Fatalf("container drain: %v %v", fed, err)
	}
	writeLines(t, abs, mkLine(9000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	if fed, err := sc.drainFile(abs, rel); err != nil || fed != 1 {
		t.Fatalf("container append drain: %v %v", fed, err)
	}
	st.Quiesce()
	c := sc.st.Apps()[0].Containers[0]
	if c.FirstLog == 0 || c.FirstTask == 0 {
		t.Fatalf("container trace incomplete: %+v", c)
	}
	if c.FirstLog != 1499000007000 {
		t.Fatalf("first log %d moved across drains", c.FirstLog)
	}
}

// appendRaw appends s to path verbatim: no terminator is added, so a
// test can write partial lines and CRLF endings.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// drainExpect drains rel once and checks how many lines it fed and
// where the offset ended.
func drainExpect(t *testing.T, sc *dirScanner, path, rel string, wantFed int, wantOff int64) {
	t.Helper()
	fed, err := sc.drainFile(path, rel)
	if err != nil || fed != wantFed {
		t.Fatalf("drain: fed=%d err=%v, want fed=%d", fed, err, wantFed)
	}
	if got := sc.offsets[rel]; got != wantOff {
		t.Fatalf("offset after drain = %d, want %d", got, wantOff)
	}
}

// TestDrainFileCRLF: CRLF-terminated lines advance the offset by every
// byte they take, CR included, so a file appended between scans is
// resumed exactly at the first new line and each line is fed once,
// without its CR.
func TestDrainFileCRLF(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	// The smallest case: two CRLF lines, ten bytes.
	junk := filepath.Join(dir, "junk.log")
	appendRaw(t, junk, "bcd\r\nefg\r\n")
	drainExpect(t, sc, junk, "junk.log", 2, 10)

	app1, app2 := "application_1499000000000_0001", "application_1499000000000_0002"
	l1 := mkLine(100, "x.RMAppImpl", app1+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l2 := mkLine(200, "x.RMAppImpl", app2+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l3 := mkLine(5000, "x.RMAppImpl", app1+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	appendRaw(t, rm, l1+"\r\n"+l2+"\r\n")
	size := int64(len(l1) + len(l2) + 4)
	drainExpect(t, sc, rm, "rm.log", 2, size)
	appendRaw(t, rm, l3+"\r\n")
	drainExpect(t, sc, rm, "rm.log", 1, size+int64(len(l3))+2)
	drainExpect(t, sc, rm, "rm.log", 0, size+int64(len(l3))+2)

	st.Quiesce()
	if n := st.EventCount(); n != 3 {
		t.Fatalf("events=%d, want 3 (each line once)", n)
	}
	a := st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
	for _, e := range a.Events {
		if strings.ContainsRune(e.Raw, '\r') {
			t.Fatalf("fed line kept its CR: %q", e.Raw)
		}
	}
}

// TestDrainFilePartialLine: a line its writer has not finished is held
// back — not fed torn, and not counted in the offset — until a later
// scan sees its newline; then it is fed once, whole.
func TestDrainFilePartialLine(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	// The smallest case: three bytes and no newline.
	junk := filepath.Join(dir, "junk.log")
	appendRaw(t, junk, "abc")
	drainExpect(t, sc, junk, "junk.log", 0, 0)

	app := "application_1499000000000_0001"
	l1 := mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l2 := mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	cut := len(l2) - len("ISTERED")
	appendRaw(t, rm, l1+"\n"+l2[:cut])
	drainExpect(t, sc, rm, "rm.log", 1, int64(len(l1))+1)
	drainExpect(t, sc, rm, "rm.log", 0, int64(len(l1))+1) // still unfinished
	appendRaw(t, rm, l2[cut:]+"\n")
	drainExpect(t, sc, rm, "rm.log", 1, int64(len(l1)+len(l2))+2)

	st.Quiesce()
	if n := st.EventCount(); n != 2 {
		t.Fatalf("events=%d, want 2 (each line once)", n)
	}
	a := st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
	if raw := a.Events[1].Raw; !strings.HasSuffix(l2, raw) || !strings.HasSuffix(raw, "ATTEMPT_REGISTERED") {
		t.Fatalf("completed line fed torn: %q", raw)
	}
}
