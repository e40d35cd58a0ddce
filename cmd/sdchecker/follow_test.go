package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
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
	fed, err := drain(t, sc, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("first drain: fed=%v err=%v", fed, err)
	}
	// No growth: nothing new.
	fed, err = drain(t, sc, "rm.log")
	if err != nil || fed != 0 {
		t.Fatalf("idle drain reported change: %v %v", fed, err)
	}
	// Append: only the new line is consumed.
	writeLines(t, rm, mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"))
	fed, err = drain(t, sc, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("append drain: fed=%v err=%v", fed, err)
	}
	st.Quiesce()
	if st.EventCount() != 2 {
		t.Fatalf("events=%d, want 2 (no re-reads)", st.EventCount())
	}
	a := st.Apps()[0]
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
	if fed, err := drain(t, sc, rel); err != nil || fed != 1 {
		t.Fatalf("container drain: %v %v", fed, err)
	}
	writeLines(t, abs, mkLine(9000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	if fed, err := drain(t, sc, rel); err != nil || fed != 1 {
		t.Fatalf("container append drain: %v %v", fed, err)
	}
	st.Quiesce()
	c := st.Apps()[0].Containers[0]
	if c.FirstLog == 0 || c.FirstTask == 0 {
		t.Fatalf("container trace incomplete: %+v", c)
	}
	if c.FirstLog != 1499000007000 {
		t.Fatalf("first log %d moved across drains", c.FirstLog)
	}
}

// recordBlocks makes sc record a copy of every block its drains hand
// the stream, in order, and still feed it. A block is a view of the
// reader's buffer, which the next read writes over.
func recordBlocks(sc *dirScanner) *[]string {
	var blocks []string
	feed := sc.feed
	sc.feed = func(source, block string) int {
		blocks = append(blocks, strings.Clone(block))
		return feed(source, block)
	}
	return &blocks
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

// pollOnce runs one ingestion pass over the whole tree: the full walk.
func (s *liveServer) pollOnce() error {
	_, err := s.poll(true, false)
	return err
}

// scan runs the full walk as a poll does, and reports whether it fed any
// line.
func (s *dirScanner) scan() (changed bool, err error) {
	fed, _, err := s.poll(true, false)
	return fed > 0, err
}

// drain drains the file of sc's tree called rel, as a scan meets it.
func drain(t *testing.T, sc *dirScanner, rel string) (fed int, err error) {
	t.Helper()
	found := false
	werr := core.WalkTree(sc.dir, 1, func(_ int, f core.TreeFile) error {
		if f.Name == rel {
			found = true
			fed, err = sc.drainFile(f)
		}
		return nil
	})
	if werr != nil || !found {
		t.Fatalf("walking to %s: found=%v err=%v", rel, found, werr)
	}
	return fed, err
}

// drainExpect drains rel once and checks how many lines it fed and
// where the offset ended.
func drainExpect(t *testing.T, sc *dirScanner, rel string, wantFed int, wantOff int64) {
	t.Helper()
	fed, err := drain(t, sc, rel)
	if err != nil || fed != wantFed {
		t.Fatalf("drain: fed=%d err=%v, want fed=%d", fed, err, wantFed)
	}
	if got := sc.files[rel].off; got != wantOff {
		t.Fatalf("offset after drain = %d, want %d", got, wantOff)
	}
}

// TestDrainFileCRLF: CRLF-terminated lines advance the offset by every
// byte they take, CR included, so a file appended between scans is
// resumed exactly at the first new line and each line is fed once. Each
// is handed over whole, its CR directly before its newline, where the
// stream's line splitter drops it (core's
// TestSegmentIterSplitsTailedBlocks).
func TestDrainFileCRLF(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	blocks := recordBlocks(sc)

	// The smallest case: two CRLF lines, ten bytes.
	junk := filepath.Join(dir, "junk.log")
	appendRaw(t, junk, "bcd\r\nefg\r\n")
	drainExpect(t, sc, "junk.log", 2, 10)

	app1, app2 := "application_1499000000000_0001", "application_1499000000000_0002"
	l1 := mkLine(100, "x.RMAppImpl", app1+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l2 := mkLine(200, "x.RMAppImpl", app2+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l3 := mkLine(5000, "x.RMAppImpl", app1+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	appendRaw(t, rm, l1+"\r\n"+l2+"\r\n")
	size := int64(len(l1) + len(l2) + 4)
	drainExpect(t, sc, "rm.log", 2, size)
	appendRaw(t, rm, l3+"\r\n")
	drainExpect(t, sc, "rm.log", 1, size+int64(len(l3))+2)
	drainExpect(t, sc, "rm.log", 0, size+int64(len(l3))+2)

	st.Quiesce()
	if n := st.EventCount(); n != 3 {
		t.Fatalf("events=%d, want 3 (each line once)", n)
	}
	a := st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
	want := []string{"bcd\r\nefg\r\n", l1 + "\r\n" + l2 + "\r\n", l3 + "\r\n"}
	if !slices.Equal(*blocks, want) {
		t.Fatalf("fed blocks %q, want %q", *blocks, want)
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
	blocks := recordBlocks(sc)

	// The smallest case: three bytes and no newline.
	junk := filepath.Join(dir, "junk.log")
	appendRaw(t, junk, "abc")
	drainExpect(t, sc, "junk.log", 0, 0)

	app := "application_1499000000000_0001"
	l1 := mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l2 := mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	cut := len(l2) - len("ISTERED")
	appendRaw(t, rm, l1+"\n"+l2[:cut])
	drainExpect(t, sc, "rm.log", 1, int64(len(l1))+1)
	drainExpect(t, sc, "rm.log", 0, int64(len(l1))+1) // still unfinished
	appendRaw(t, rm, l2[cut:]+"\n")
	drainExpect(t, sc, "rm.log", 1, int64(len(l1)+len(l2))+2)

	st.Quiesce()
	if n := st.EventCount(); n != 2 {
		t.Fatalf("events=%d, want 2 (each line once)", n)
	}
	a := st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
	if want := []string{l1 + "\n", l2 + "\n"}; !slices.Equal(*blocks, want) {
		t.Fatalf("fed blocks %q, want %q: completed line fed torn", *blocks, want)
	}
}

// TestDrainFileBlocksOutliveRead: the reader's blocks are views of its
// buffer, which its next read overwrites, while the stream's workers
// mine a fed block later. A drain of a file of more than one read chunk
// reads over its first block before the workers are done, so FeedBlock
// must have copied each block before it returned: the drain must hand
// over blocks that spell the file's lines, and the stream must report
// what a serial stream fed the same lines reports. Under -race the
// stream also poisons each of its buffers once its lines are parsed.
func TestDrainFileBlocksOutliveRead(t *testing.T) {
	dir := t.TempDir()
	st := core.NewShardedStream(2)
	defer st.Close()
	sc := newDirScanner(dir, st)
	blocks := recordBlocks(sc)

	var b strings.Builder
	n := 0
	for ; b.Len() < 3<<20/2; n++ {
		app := fmt.Sprintf("application_1499000000000_%04d", n+1)
		b.WriteString(mkLine(int64(n), "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED") + "\n")
	}
	appendRaw(t, filepath.Join(dir, "rm.log"), b.String())
	drainExpect(t, sc, "rm.log", n, int64(b.Len()))
	if len(*blocks) < 2 {
		t.Fatalf("the drain fed %d block(s), want one per read chunk", len(*blocks))
	}
	if got := strings.Join(*blocks, ""); got != b.String() {
		t.Fatalf("the fed blocks no longer spell the file's lines after the drain")
	}
	st.Quiesce()
	if got := st.EventCount(); got != n {
		t.Fatalf("events=%d, want %d, one per line", got, n)
	}
	ref := core.NewStream()
	for _, l := range strings.SplitAfter(b.String(), "\n") {
		ref.Feed("rm.log", strings.TrimSuffix(l, "\n"))
	}
	got, err := st.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ref.Report().JSON(); got != want {
		t.Fatalf("the drained stream's report differs from a serial stream's of the same lines")
	}
}

// TestScanSkipsOverLongLine: a line of core.MaxLineBytes or more neither
// stops the walk nor wedges later scans. The first scan reports the
// skipped line and still feeds the file walked after it; the second
// returns no error; lines appended after the long one are fed.
func TestScanSkipsOverLongLine(t *testing.T) {
	dir := t.TempDir()
	writeLongLineTree(t, dir)

	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	changed, err := sc.scan()
	if err == nil || !strings.Contains(err.Error(), "a/big.log") {
		t.Fatalf("first scan: err=%v, want the skipped line reported", err)
	}
	st.Quiesce()
	if !changed || st.EventCount() != 1 {
		t.Fatalf("first scan: changed=%v events=%d, want b/rm.log's line fed", changed, st.EventCount())
	}
	if changed, err := sc.scan(); err != nil || changed {
		t.Fatalf("second scan: changed=%v err=%v, want an idle scan", changed, err)
	}
	if got, want := sc.files["a/big.log"].off, int64(5<<20+1); got != want {
		t.Fatalf("offset %d, want %d (past the long line)", got, want)
	}

	writeLines(t, filepath.Join(dir, "a", "big.log"), mkLine(100, "x.RMAppImpl", "application_1499000000000_0002 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	if _, err := sc.scan(); err != nil {
		t.Fatalf("scan after append: %v", err)
	}
	st.Quiesce()
	if st.EventCount() != 2 {
		t.Fatalf("events=%d, want the line after the long one fed", st.EventCount())
	}
}

// TestDrainFileUnfinishedLongLine: an over-long line whose newline has
// not arrived yet is skipped as far as it was read; the drain that sees
// its newline discards the rest of it and feeds what follows.
func TestDrainFileUnfinishedLongLine(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	appendRaw(t, rm, strings.Repeat("x", 5<<20))
	if fed, err := drain(t, sc, "rm.log"); err == nil || fed != 0 {
		t.Fatalf("first drain: fed=%d err=%v, want the skipped line reported", fed, err)
	}
	if got := sc.files["rm.log"].off; got != 5<<20 {
		t.Fatalf("offset %d, want %d (the end of what was read)", got, 5<<20)
	}
	app := "application_1499000000000_0001"
	l := mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	appendRaw(t, rm, "xxx\n"+l+"\n")
	drainExpect(t, sc, "rm.log", 1, 5<<20+4+int64(len(l))+1)
	st.Quiesce()
	if st.EventCount() != 1 {
		t.Fatalf("events=%d, want 1", st.EventCount())
	}
}

// TestScanContinuesPastFileErrors: a file that cannot be read is
// reported once the walk is done, and one that no longer exists (a
// dangling symlink here, as a file deleted mid-walk looks) is skipped
// silently; either way the files walked after it are fed.
func TestScanContinuesPastFileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink(filepath.Join(dir, "gone.log"), filepath.Join(dir, "a-dangling.log")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(t.TempDir(), filepath.Join(dir, "b-dir.log")); err != nil {
		t.Fatal(err)
	}
	app := "application_1499000000000_0001"
	writeLines(t, filepath.Join(dir, "c-rm.log"), mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))

	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	_, err := sc.scan()
	if err == nil || !strings.Contains(err.Error(), "b-dir.log") || strings.Contains(err.Error(), "a-dangling.log") {
		t.Fatalf("scan error %v, want only the unreadable file reported", err)
	}
	st.Quiesce()
	if st.EventCount() != 1 {
		t.Fatalf("events=%d, want c-rm.log's line fed", st.EventCount())
	}
}

// TestDrainFileLongLineBoundary: a line of core.MaxLineBytes-1 bytes is
// fed, one of core.MaxLineBytes is skipped, as the offline parser draws
// the line.
func TestDrainFileLongLineBoundary(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	appendRaw(t, rm, strings.Repeat("x", core.MaxLineBytes-1)+"\n")
	drainExpect(t, sc, "rm.log", 1, core.MaxLineBytes)
	appendRaw(t, rm, strings.Repeat("x", core.MaxLineBytes)+"\nshort\n")
	fed, err := drain(t, sc, "rm.log")
	if err == nil || fed != 1 {
		t.Fatalf("drain: fed=%d err=%v, want the short line fed and the long one reported", fed, err)
	}
	if got, want := sc.files["rm.log"].off, int64(2*core.MaxLineBytes+1+len("short\n")); got != want {
		t.Fatalf("offset %d, want %d", got, want)
	}
}

// TestScanRefeedsAfterTruncate: a file truncated in place
// (copytruncate rotation) and written again with fewer bytes than the
// recorded offset is fed from its start on the next scan, not skipped
// until it grows past the old offset.
func TestScanRefeedsAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)

	submitted := func(seq int) string {
		return mkLine(int64(seq)*100, "x.RMAppImpl", fmt.Sprintf("application_1499000000000_%04d State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED", seq))
	}
	writeLines(t, rm, submitted(1), submitted(2), submitted(3))
	if _, err := sc.scan(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rm, 0); err != nil {
		t.Fatal(err)
	}
	l := submitted(4)
	writeLines(t, rm, l)
	if changed, err := sc.scan(); err != nil || !changed {
		t.Fatalf("scan after truncate: changed=%v err=%v, want the new line fed", changed, err)
	}
	if got, want := sc.files["rm.log"].off, int64(len(l)+1); got != want {
		t.Fatalf("offset %d, want %d", got, want)
	}
	st.Quiesce()
	if n := st.EventCount(); n != 4 {
		t.Fatalf("events=%d, want 4", n)
	}
	if a := st.App(ids.AppID{ClusterTS: 1499000000000, Seq: 4}); a == nil || a.Submitted != 1499000000400 {
		t.Fatalf("app 0004 after truncate: %+v", a)
	}
}

// FuzzDrainFile appends content to a file in pieces, draining it after
// each append, and checks the drains against the offline split of the
// final content's complete lines: split on '\n', one CR dropped, a line
// of core.MaxLineBytes or more skipped. The lines fed must be as many as
// that split gives and build the same report as feeding its lines one
// by one, and the offset must end at the last newline, or past an
// unfinished tail of core.MaxLineBytes or more. long, when long%4 is
// nonzero, inserts a run of 'x' that puts the line it joins near the
// cap or past it; cuts places the piece boundaries as fractions of the
// content.
func FuzzDrainFile(f *testing.F) {
	sub := mkLine(100, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	reg := mkLine(5000, "x.RMAppImpl", "application_1499000000000_0001 State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	f.Add([]byte(sub+"\n"+reg+"\n"), []byte{100}, uint8(0))
	f.Add([]byte(sub+"\r\n"+reg+"\r\n"), []byte{7, 200, 90}, uint8(0))
	f.Add([]byte(sub+"\n"+reg), []byte{128, 250}, uint8(0))
	f.Add([]byte("\n\n"+sub+"\n"+reg+"\n"), []byte{1, 2, 254}, uint8(4*1+1))
	f.Add([]byte("\n"+sub+"\n"+reg+"\n"), []byte{30, 31}, uint8(4*1+2))
	f.Add([]byte("\n\r\n"+reg+"\n"), []byte{128}, uint8(4*1+3))
	f.Add([]byte(sub+"\n"), []byte{10, 20, 240}, uint8(4*20+2))
	f.Add([]byte("\n"+sub+"\n"+reg+"\n"), []byte{180, 200, 230}, uint8(4*1+3))
	f.Fuzz(func(t *testing.T, content, cuts []byte, long uint8) {
		data := string(content)
		if k := int(long % 4); k > 0 {
			// A run one or two bytes short of the cap, which the bytes it
			// joins may take to it or past it, or one well past it, which
			// a piece boundary may leave unfinished past the cap.
			run := []int{core.MaxLineBytes - 2, core.MaxLineBytes - 1, core.MaxLineBytes * 3 / 2}[k-1]
			at := int(long/4) % (len(data) + 1)
			data = data[:at] + strings.Repeat("x", run) + data[at:]
		}
		ends := []int{len(data)}
		for _, c := range cuts[:min(len(cuts), 16)] {
			ends = append(ends, int(c)*len(data)/255)
		}
		slices.Sort(ends)

		dir := t.TempDir()
		path := filepath.Join(dir, "rm.log")
		st := core.NewShardedStream(1)
		defer st.Close()
		sc := newDirScanner(dir, st)
		fed, written := 0, 0
		for _, end := range ends {
			appendRaw(t, path, data[written:end])
			written = end
			n, err := drain(t, sc, "rm.log")
			if err != nil && !strings.Contains(err.Error(), "skipped a line") {
				t.Fatalf("drain: %v", err)
			}
			fed += n
		}

		last := strings.LastIndexByte(data, '\n')
		var want []string
		if last >= 0 {
			for _, seg := range strings.Split(data[:last], "\n") {
				if len(seg) < core.MaxLineBytes {
					want = append(want, strings.TrimSuffix(seg, "\r"))
				}
			}
		}
		wantOff := int64(last + 1)
		if len(data)-(last+1) >= core.MaxLineBytes {
			wantOff = int64(len(data))
		}
		if got := sc.files["rm.log"].off; got != wantOff {
			t.Fatalf("offset %d, want %d", got, wantOff)
		}
		if fed != len(want) {
			t.Fatalf("fed %d lines, want %d", fed, len(want))
		}
		ref := core.NewShardedStream(1)
		defer ref.Close()
		for _, l := range want {
			ref.Feed("rm.log", l)
		}
		st.Quiesce()
		ref.Quiesce()
		got, err := st.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ref.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if st.EventCount() != ref.EventCount() || got != exp {
			t.Fatalf("drained report differs from the split's:\n%s\nwant:\n%s", got, exp)
		}
	})
}

// TestScanClosesDescriptors: the tailer's reads go through raw
// descriptors, which nothing finalizes, so two full scans — the first
// feeding the tree, the second idle — leave as many descriptors open
// as there were before, also past a file that fails to read.
func TestScanClosesDescriptors(t *testing.T) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	dir := t.TempDir()
	writePlantedLogs(t, dir, 20)
	if err := os.Symlink(t.TempDir(), filepath.Join(dir, "b-dir.log")); err != nil {
		t.Fatal(err)
	}
	st := core.NewShardedStream(2)
	defer st.Close()
	sc := newDirScanner(dir, st)
	before := len(fds)
	for i := 0; i < 2; i++ {
		if _, err := sc.scan(); err == nil || !strings.Contains(err.Error(), "b-dir.log") {
			t.Fatalf("scan %d: %v, want b-dir.log's read error", i, err)
		}
	}
	fds, _ = os.ReadDir("/proc/self/fd")
	if len(fds) != before {
		t.Errorf("%d descriptors open before the scans, %d after", before, len(fds))
	}
}
