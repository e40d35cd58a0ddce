package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
)

func writeLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l + "\n"); err != nil {
			t.Fatal(err)
		}
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
