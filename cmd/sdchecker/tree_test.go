package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// submittedLine is an RMAppImpl SUBMITTED transition of app 0007 at
// 1499000400000.
var submittedLine = mkLine(400000, "x.RMAppImpl", "application_1499000000000_0007 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")

// writeLongLineTree writes the over-long line reproducer: a/big.log
// holds one 5 MiB line, b/rm.log one RMAppImpl line.
func writeLongLineTree(t *testing.T, dir string) {
	t.Helper()
	for _, d := range []string{"a", "b"} {
		if err := os.Mkdir(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	appendRaw(t, filepath.Join(dir, "a", "big.log"), strings.Repeat("x", 5<<20)+"\n")
	writeLines(t, filepath.Join(dir, "b", "rm.log"), submittedLine)
}

// writeLongContainerLineTree writes a container stderr whose lines are
// an executor line, a line of exactly core.MaxLineBytes, and the first
// task assignment.
func writeLongContainerLineTree(t *testing.T, dir string) {
	t.Helper()
	rel := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	const backend = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
	writeLines(t, path,
		mkLine(7000, backend, "Started daemon"),
		strings.Repeat("x", core.MaxLineBytes),
		mkLine(9000, backend, "Got assigned task 0"))
}

// writeDanglingSymlinkTree writes a dangling symlink, as a file deleted
// mid-walk looks, next to one RM log.
func writeDanglingSymlinkTree(t *testing.T, dir string) {
	t.Helper()
	if err := os.Symlink(filepath.Join(dir, "gone.log"), filepath.Join(dir, "a-dangling.log")); err != nil {
		t.Fatal(err)
	}
	writeLines(t, filepath.Join(dir, "c-rm.log"), submittedLine)
}

// TestOfflineEqualsLiveTreeEdges: on trees with an over-long line or a
// vanished file, or mined through a symlink to the tree, the offline
// miners (MineDir at one and two workers, the serial Checker) and one
// tailer scan into a stream render the same JSON, and the offline ones
// succeed.
func TestOfflineEqualsLiveTreeEdges(t *testing.T) {
	trees := []struct {
		name  string
		write func(*testing.T, string)
		mined []string // in the JSON of every path
		link  bool     // mine the tree through a symlink to it
	}{
		{"long line", writeLongLineTree, []string{`"submitted_ms": 1499000400000`}, false},
		{"long container line", writeLongContainerLineTree, []string{`"instance": "spe"`, `"first_log_ms": 1499000007000`}, false},
		{"dangling symlink", writeDanglingSymlinkTree, []string{`"submitted_ms": 1499000400000`}, false},
		{"symlinked root", writeLongContainerLineTree, []string{`"instance": "spe"`, `"first_log_ms": 1499000007000`}, true},
	}
	for _, tr := range trees {
		t.Run(tr.name, func(t *testing.T) {
			dir := t.TempDir()
			tr.write(t, dir)
			if tr.link {
				link := filepath.Join(t.TempDir(), "logs")
				if err := os.Symlink(dir, link); err != nil {
					t.Fatal(err)
				}
				dir = link
			}
			render := func(how string, rep *core.Report, err error) string {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				out, err := rep.JSON()
				if err != nil {
					t.Fatalf("%s: JSON: %v", how, err)
				}
				return out
			}
			rep, err := core.MineDir(dir, 1)
			want := render("MineDir workers=1", rep, err)
			for _, m := range tr.mined {
				if !strings.Contains(want, m) {
					t.Fatalf("MineDir JSON lacks %s:\n%s", m, want)
				}
			}
			rep, err = core.MineDir(dir, 2)
			got := map[string]string{"MineDir workers=2": render("MineDir workers=2", rep, err)}

			ck := core.New()
			err = ck.AddDir(dir)
			got["Checker.AddDir"] = render("Checker.AddDir", ck.Analyze(), err)

			st := core.NewShardedStream(1)
			defer st.Close()
			if _, err := newDirScanner(dir, st).scan(); err != nil && !strings.Contains(err.Error(), "skipped a line") {
				t.Fatalf("scan: %v", err)
			}
			st.Quiesce()
			got["dirScanner"] = render("dirScanner", st.Report(), nil)

			for how, out := range got {
				if out != want {
					t.Errorf("%s JSON differs from MineDir workers=1:\n%s\nwant:\n%s", how, out, want)
				}
			}
		})
	}
}

// TestMineCLISkipsOverLongLine runs `sdchecker -dir T -json` on the
// over-long line reproducer: it exits 0, mines b/rm.log, and warns on
// stderr about the line it skipped in a/big.log.
func TestMineCLISkipsOverLongLine(t *testing.T) {
	if dir := os.Getenv("SDCHECKER_TEST_MINE_DIR"); dir != "" {
		os.Args = []string{"sdchecker", "-dir", dir, "-json"}
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	writeLongLineTree(t, dir)
	cmd := exec.Command(os.Args[0], "-test.run=^TestMineCLISkipsOverLongLine$")
	cmd.Env = append(os.Environ(), "SDCHECKER_TEST_MINE_DIR="+dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("exit %d, want 0; stderr:\n%s", ee.ExitCode(), stderr.String())
		}
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.Contains(out, `"application_1499000000000_0007"`) || !strings.Contains(out, `"submitted_ms": 1499000400000`) {
		t.Errorf("stdout lacks app 0007 submitted at 1499000400000:\n%s", out)
	}
	if want := "sdchecker: warning: a/big.log: skipped 1 line(s) of 4194304 bytes or more\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestMineCLIJSONWriteErrorExits1 runs `sdchecker -dir T -json` with
// standard output on /dev/full: the failed write must exit 1 with the
// error, not 0 with a truncated report.
func TestMineCLIJSONWriteErrorExits1(t *testing.T) {
	if dir := os.Getenv("SDCHECKER_TEST_FULL_DIR"); dir != "" {
		os.Args = []string{"sdchecker", "-dir", dir, "-json"}
		main()
		os.Exit(0)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	dir := t.TempDir()
	writeLines(t, filepath.Join(dir, "rm.log"), submittedLine)
	cmd := exec.Command(os.Args[0], "-test.run=^TestMineCLIJSONWriteErrorExits1$")
	cmd.Env = append(os.Environ(), "SDCHECKER_TEST_FULL_DIR="+dir)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = full, &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "sdchecker: ") || !strings.Contains(msg, "no space left on device") {
		t.Errorf("stderr = %q, want the write error", msg)
	}
}
