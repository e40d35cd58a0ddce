package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// The wake path: -serve's directory watch names what changed, and a
// poll over just those files runs at once instead of at the next full
// walk. These tests depend on timing, so CI runs them repeatedly under
// the race detector (-run 'Wake|Watch').

// splitTree copies the log tree at src into dst with only the first
// half of every file's lines, returning the held-back halves by
// slash-separated name.
func splitTree(t *testing.T, src, dst string) map[string]string {
	t.Helper()
	rest := map[string]string{}
	err := core.WalkTree(src, 1, func(_ int, f core.TreeFile) error {
		b, err := os.ReadFile(filepath.Join(src, filepath.FromSlash(f.Name)))
		if err != nil {
			return err
		}
		lines := strings.SplitAfter(string(b), "\n")
		half := len(lines) / 2
		path := filepath.Join(dst, filepath.FromSlash(f.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		rest[f.Name] = strings.Join(lines[half:], "")
		return os.WriteFile(path, []byte(strings.Join(lines[:half], "")), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rest
}

// healthz reads the started server's /healthz.
func healthz(t *testing.T, base string) healthDoc {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// waitApps polls /healthz every 5 ms until it counts want ingested apps,
// returning how long that took.
func waitApps(t *testing.T, base string, want uint64, timeout time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for healthz(t, base).AppsIngested < want {
		if time.Since(start) > timeout {
			t.Fatalf("/healthz did not count %d apps within %v", want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start)
}

// TestWakeCountsCompletionBeforeWalk: once the first poll has ingested a
// tree whose applications have not completed yet, the lines that
// complete them are counted by /healthz well before the next full walk,
// which is a second away.
func TestWakeCountsCompletionBeforeWalk(t *testing.T) {
	src := writeScenarioLogs(t)
	ref := newLiveServer(src, testServeOptions(2, nil))
	defer ref.close()
	if err := ref.pollOnce(); err != nil {
		t.Fatal(err)
	}
	total := ref.eng.AppsIngested()

	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	ln, err := srv.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	base := "http://" + ln.Addr().String()
	waitFor(t, "the first poll and its watches", 10*time.Second, func() bool {
		return healthz(t, base).LastScanUnixMS > 0 && srv.watchDirs.Value() > 0
	})
	if got := healthz(t, base).AppsIngested; total == 0 || got >= total {
		t.Fatalf("the split tree already completes %d of %d apps", got, total)
	}
	for name, s := range rest {
		appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), s)
	}
	if d := waitApps(t, base, total, 10*time.Second); d > 300*time.Millisecond {
		t.Errorf("the completing lines were counted after %v, want under 300ms", d)
	}
	if srv.wakePolls.Value() == 0 {
		t.Error("no wake poll ran")
	}
}

// TestWakeDrainsNewDirectory drives a scanner by hand, so no full walk
// can drain what the watch should: a container directory, nested two
// deep below the watched root, and its stderr are created, written
// before any watch on them exists, and drained on the directory's
// IN_CREATE. Then a line appended to the stderr is drained through the
// new directory's own watch.
func TestWakeDrainsNewDirectory(t *testing.T) {
	dir := t.TempDir()
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	w, err := newWatcher(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc.w = w
	if _, err := sc.scan(); err != nil {
		t.Fatal(err)
	}
	sc.watchEntered()
	if n := w.watched(); n != 1 {
		w.close()
		t.Fatalf("%d directories watched after walking an empty root, want 1", n)
	}
	ran := make(chan struct{})
	go func() { defer close(ran); w.run() }()
	defer func() { w.close(); <-ran }()

	rel := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	abs := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		t.Fatal(err)
	}
	writeLines(t, abs, mkLine(7000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	wakeDrain := func(want int) {
		t.Helper()
		select {
		case <-w.wake:
		case <-time.After(5 * time.Second):
			t.Fatal("no wake")
		}
		fed := 0
		waitFor(t, "the wake's lines", 5*time.Second, func() bool {
			n, _, err := sc.poll(false, false)
			if err != nil {
				t.Fatal(err)
			}
			fed += n
			return fed > 0
		})
		if got := sc.files[rel].off; got != int64(want) {
			t.Fatalf("%s drained to offset %d, want %d", rel, got, want)
		}
	}
	size := func() int {
		fi, err := os.Stat(abs)
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	wakeDrain(size())
	if w.watched() != 4 {
		t.Errorf("%d directories watched, want 4", w.watched())
	}
	writeLines(t, abs, mkLine(9000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	wakeDrain(size())
	st.Quiesce()
	c := st.Apps()[0].Containers[0]
	if c.FirstLog != 1499000007000 || c.FirstTask != 1499000009000 {
		t.Fatalf("container trace %+v, want first log and first task from both drains", c)
	}
}

// inotifyEvents encodes events as the kernel lays them out: a name is
// NUL-padded to a multiple of 8 bytes.
func inotifyEvents(evs ...syscall.InotifyEvent) func(names ...string) []byte {
	return func(names ...string) []byte {
		var b []byte
		for i, ev := range evs {
			name := names[i]
			n := 0
			if name != "" {
				n = (len(name) + 8) &^ 7
			}
			b = binary.NativeEndian.AppendUint32(b, uint32(ev.Wd))
			b = binary.NativeEndian.AppendUint32(b, ev.Mask)
			b = binary.NativeEndian.AppendUint32(b, ev.Cookie)
			b = binary.NativeEndian.AppendUint32(b, uint32(n))
			b = append(b, name...)
			b = append(b, make([]byte, n-len(name))...)
		}
		return b
	}
}

// TestWatchDecode reads a synthetic event buffer: file names joined to
// their directory's name, a directory's IN_ISDIR, events on the
// directory itself and on a descriptor the watcher does not know (both
// dropped), a removed watch, and a queue overflow, which makes the next
// wake poll a full walk.
func TestWatchDecode(t *testing.T) {
	dir := t.TempDir()
	w, err := newWatcher(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.dirs[1], w.wds[""] = "", 1
	w.dirs[2], w.wds["userlogs/app"] = "userlogs/app", 2
	w.dirs[3], w.wds["gone"] = "gone", 3
	buf := inotifyEvents(
		syscall.InotifyEvent{Wd: 1, Mask: syscall.IN_MODIFY},
		syscall.InotifyEvent{Wd: 2, Mask: syscall.IN_CREATE | syscall.IN_ISDIR},
		syscall.InotifyEvent{Wd: 2, Mask: syscall.IN_CREATE},
		syscall.InotifyEvent{Wd: 2, Mask: syscall.IN_MODIFY},
		syscall.InotifyEvent{Wd: 9, Mask: syscall.IN_MODIFY},
		syscall.InotifyEvent{Wd: 3, Mask: syscall.IN_IGNORED},
		syscall.InotifyEvent{Wd: 3, Mask: syscall.IN_MODIFY},
		syscall.InotifyEvent{Wd: 1, Mask: syscall.IN_MODIFY},
	)("rm.log", "container_01", "stderr-with-a-long-name", "", "unknown", "", "stale", "rm.log")
	w.decode(buf)
	names, dirs, overflow := w.take(nil)
	if want := []string{"rm.log", "userlogs/app/stderr-with-a-long-name"}; !slices.Equal(names, want) {
		t.Errorf("files %q, want %q", names, want)
	}
	if want := []string{"userlogs/app/container_01"}; !slices.Equal(dirs, want) {
		t.Errorf("directories %q, want %q", dirs, want)
	}
	if overflow {
		t.Error("overflow without IN_Q_OVERFLOW")
	}
	if _, ok := w.wds["gone"]; ok || w.watched() != 2 {
		t.Errorf("IN_IGNORED left the watch: %v", w.dirs)
	}
	if names, dirs, _ := w.take(nil); len(names)+len(dirs) != 0 {
		t.Errorf("a second take returned %q %q", names, dirs)
	}

	// An overflow: the named file is not the only one drained.
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	sc.w = w
	for _, f := range []string{"rm.log", "nm.log"} {
		writeLines(t, filepath.Join(dir, f), mkLine(100, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	}
	w.decode(inotifyEvents(
		syscall.InotifyEvent{Wd: 1, Mask: syscall.IN_MODIFY},
		syscall.InotifyEvent{Wd: -1, Mask: syscall.IN_Q_OVERFLOW},
	)("rm.log", ""))
	if _, walked, err := sc.poll(false, false); err != nil || !walked {
		t.Fatalf("wake poll after IN_Q_OVERFLOW: walked=%v err=%v", walked, err)
	}
	if _, ok := sc.files["nm.log"]; !ok {
		t.Errorf("after IN_Q_OVERFLOW the wake poll drained only %v, not the whole tree", sc.files)
	}
}

// TestWatchUnavailableWalksOnly: a server whose watch cannot start
// ingests as it did before there was one, by the 1 s full walk alone,
// and /metrics says why.
func TestWatchUnavailableWalksOnly(t *testing.T) {
	defer func(f func(string) (*watcher, error)) { startWatch = f }(startWatch)
	startWatch = func(string) (*watcher, error) { return nil, errors.New("no inotify") }

	src := writeScenarioLogs(t)
	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	ln, err := srv.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	base := "http://" + ln.Addr().String()
	waitFor(t, "the first poll", 10*time.Second, func() bool { return healthz(t, base).LastScanUnixMS > 0 })
	first := healthz(t, base).LastScanUnixMS
	for name, s := range rest {
		appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), s)
	}
	waitFor(t, "the next full walk", 10*time.Second, func() bool { return healthz(t, base).LastScanUnixMS > first })
	if h := healthz(t, base); h.Status != "ok" || h.AppsIngested == 0 {
		t.Errorf("after the walk /healthz is %+v", h)
	}
	_, body := get(t, base+"/metrics")
	for _, want := range []string{
		`serve_watch_fallbacks_total{reason="unavailable"} 1`,
		"serve_wake_polls_total 0",
		"serve_watch_dirs 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if srv.sc.w != nil {
		t.Error("the scanner holds a watch")
	}
}

// startWatched starts a server on dir with the options o, waits for its
// first walk and for the walk a second later that closes the gap before
// the first walk's watches, and returns its base URL and the second
// walk's time.
func startWatched(t *testing.T, dir string, o serveOptions) (srv *liveServer, base string, converged int64) {
	t.Helper()
	srv = newLiveServer(dir, o)
	ln, err := srv.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	base = "http://" + ln.Addr().String()
	waitFor(t, "the first two walks", 10*time.Second, func() bool {
		var polls, wakes int
		fmt.Sscan(strings.Fields(metricLine(t, base, `obs_stage_duration_ms_count{stage="scan"}`))[1], &polls)
		fmt.Sscan(strings.Fields(metricLine(t, base, "serve_wake_polls_total"))[1], &wakes)
		return polls-wakes >= 2
	})
	return srv, base, healthz(t, base).LastScanUnixMS
}

// appendSlowly appends the held-back halves a line per write, 10 ms
// apart, so that reconciling walks run among the writes.
func appendSlowly(t *testing.T, dir string, rest map[string]string) {
	t.Helper()
	for name, s := range rest {
		for _, l := range strings.SplitAfter(s, "\n") {
			appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), l)
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// metricLine returns the /metrics line of the series called name.
func metricLine(t *testing.T, base, name string) string {
	t.Helper()
	_, body := get(t, base+"/metrics")
	for _, ln := range strings.Split(body, "\n") {
		if strings.HasPrefix(ln, name+" ") {
			return ln
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return ""
}

// TestWatchLeavesNothingToTheWalk is the proof that the watch can be
// trusted: with a reconciling walk every 150 ms while a split tree's
// other halves are appended in many small writes, no walk feeds a line
// the watch did not name, and /apps ends equal to the offline report.
func TestWatchLeavesNothingToTheWalk(t *testing.T) {
	src := writeScenarioLogs(t)
	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	o := testServeOptions(2, nil)
	o.stallAfterMS = 300
	_, base, _ := startWatched(t, dir, o)
	before := healthz(t, base).LastScanUnixMS
	appendSlowly(t, dir, rest)
	if healthz(t, base).LastScanUnixMS == before {
		t.Fatal("no reconciling walk ran among the writes")
	}
	offline, err := core.MineDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.JSON()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "/apps to equal the offline report", 10*time.Second, func() bool {
		_, body := get(t, base+"/apps")
		return body == want+"\n"
	})
	// Two more walks: the unseen files of the last are judged by the
	// next poll.
	for i := 0; i < 2; i++ {
		last := healthz(t, base).LastScanUnixMS
		waitFor(t, "a reconciling walk", 5*time.Second, func() bool { return healthz(t, base).LastScanUnixMS > last })
	}
	if got := metricLine(t, base, "serve_walk_unwoken_files_total"); got != "serve_walk_unwoken_files_total 0" {
		t.Errorf("%s: a walk fed lines the watch had not named", got)
	}
}

// TestWatchConvergingWalkDrainsGap: a line written to a directory the
// walk listed, before watchEntered added its watch, is named by no
// event. watchEntered says the tree is not covered, which brings the
// next walk to a second, and that walk drains the line; after it the
// tree is covered.
func TestWatchConvergingWalkDrainsGap(t *testing.T) {
	dir := t.TempDir()
	rel := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	abs := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		t.Fatal(err)
	}
	writeLines(t, abs, mkLine(7000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	st := core.NewShardedStream(1)
	defer st.Close()
	sc := newDirScanner(dir, st)
	w, err := newWatcher(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc.w = w
	ran := make(chan struct{})
	go func() { defer close(ran); w.run() }()
	defer func() { w.close(); <-ran }()

	if _, err := sc.scan(); err != nil {
		t.Fatal(err)
	}
	writeLines(t, abs, mkLine(9000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	if sc.watchEntered() {
		t.Fatal("the tree is covered right after a walk that listed directories without a watch")
	}
	off := sc.files[rel].off
	if fed, _, err := sc.poll(false, false); err != nil || fed != 0 {
		t.Fatalf("a wake poll fed %d lines (err %v) that no event named", fed, err)
	}
	if fed, walked, err := sc.poll(true, false); err != nil || !walked || fed != 1 {
		t.Fatalf("the converging walk: fed=%d walked=%v err=%v, want the gap's line", fed, walked, err)
	}
	if sc.files[rel].off <= off {
		t.Fatal("the converging walk did not move the offset")
	}
	if !sc.watchEntered() {
		t.Error("the tree is not covered after the converging walk")
	}
}

// TestWatchIdleTreeIsNotWalked: once the watch covers the tree, an idle
// server does not walk it for the reconciling period (15 s at the
// default stall window), while completing lines appended meanwhile are
// counted by /healthz through a wake.
func TestWatchIdleTreeIsNotWalked(t *testing.T) {
	src := writeScenarioLogs(t)
	ref := newLiveServer(src, testServeOptions(2, nil))
	defer ref.close()
	if err := ref.pollOnce(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	srv, base, converged := startWatched(t, dir, testServeOptions(2, nil))
	since := time.Now()
	for name, s := range rest {
		appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), s)
	}
	waitApps(t, base, ref.eng.AppsIngested(), 5*time.Second)
	time.Sleep(2*time.Second - time.Since(since))
	if got := healthz(t, base).LastScanUnixMS; got != converged {
		t.Errorf("last_scan_unix_ms moved from %d to %d on a covered tree", converged, got)
	}
	if srv.wakePolls.Value() == 0 {
		t.Error("no wake poll ran")
	}
}

// TestWatchLimitFallsBackToWalk: a watch given up at the limit is closed
// but stays the scanner's; the server must still walk once a second, so
// a line appended after is ingested well before a reconciling walk.
func TestWatchLimitFallsBackToWalk(t *testing.T) {
	src := writeScenarioLogs(t)
	ref := newLiveServer(src, testServeOptions(2, nil))
	defer ref.close()
	if err := ref.pollOnce(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	srv, base, converged := startWatched(t, dir, testServeOptions(2, nil))
	srv.sc.stopWatch(syscall.ENOSPC)
	for name, s := range rest {
		appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), s)
	}
	waitApps(t, base, ref.eng.AppsIngested(), 5*time.Second)
	if got := healthz(t, base).LastScanUnixMS; got <= converged {
		t.Error("the lines were ingested without a walk")
	}
	if got := metricLine(t, base, `serve_watch_fallbacks_total{reason="limit"}`); !strings.HasSuffix(got, " 1") {
		t.Errorf("/metrics has %q, want 1", got)
	}
}

// TestWatchRootRemovedTurnsUnhealthy is TestServeHealthzDegraded on a
// started, watched server: the root's removal ends its watch, the wake
// that reports it walks, and walks then run once a second, so /healthz
// turns unhealthy after about healthFailThreshold seconds.
func TestWatchRootRemovedTurnsUnhealthy(t *testing.T) {
	gone := filepath.Join(t.TempDir(), "gone")
	if err := os.MkdirAll(filepath.Join(gone, "userlogs"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, base, _ := startWatched(t, gone, testServeOptions(2, nil))
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitFor(t, "/healthz to turn unhealthy", 3*healthFailThreshold*time.Second, func() bool {
		code, _ := get(t, base+"/healthz")
		return code == http.StatusServiceUnavailable
	})
	h := healthz(t, base)
	if d := time.Since(start); h.Status != "unhealthy" || h.LastError == "" || d > (healthFailThreshold+2)*time.Second {
		t.Errorf("after %v /healthz is %+v, want unhealthy within about %d s", d, h, healthFailThreshold)
	}
}

// syncWriter is an io.Writer a test can read while another goroutine
// writes to it.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestFollowWatchMatchesOffline runs -follow on a split tree and appends
// the held-back halves: the last summary it prints is the offline
// miner's, and wakes drained the lines. A -dir missing at start is an
// error.
func TestFollowWatchMatchesOffline(t *testing.T) {
	src := writeScenarioLogs(t)
	dir := t.TempDir()
	rest := splitTree(t, src, dir)
	defer func(f func(string, serveOptions) *liveServer) { followServer = f }(followServer)
	started := make(chan *liveServer, 1)
	followServer = func(dir string, o serveOptions) *liveServer {
		srv := newLiveServer(dir, o)
		started <- srv
		return srv
	}
	var out syncWriter
	done := make(chan struct{})
	ended := make(chan error, 1)
	go func() { ended <- followDir(dir, 2, &out, done) }()
	defer func() {
		close(done)
		if err := <-ended; err != nil {
			t.Error(err)
		}
	}()
	srv := <-started
	waitFor(t, "the first summary and the watches", 10*time.Second, func() bool {
		return strings.Contains(out.String(), "\n--- ") && srv.watchDirs.Value() > 0
	})
	for name, s := range rest {
		appendRaw(t, filepath.Join(dir, filepath.FromSlash(name)), s)
	}
	offline, err := core.MineDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := offline.Format()
	last := func() string {
		s := out.String()
		s = s[strings.LastIndex(s, "\n--- ")+1:]
		return s[strings.IndexByte(s, '\n')+1:]
	}
	waitFor(t, "the offline summary", 10*time.Second, func() bool { return last() == want })
	if srv.wakePolls.Value() == 0 {
		t.Error("no wake poll ran")
	}

	if err := followDir(filepath.Join(dir, "missing"), 1, &out, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a missing -dir: %v, want it not found", err)
	}
}
