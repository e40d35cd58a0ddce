package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
			changed, err := sc.scanNamed()
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				fed++
			}
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
	if _, err := sc.scanNamed(); err != nil {
		t.Fatal(err)
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
