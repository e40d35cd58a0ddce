package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// walkDirReference is the walk WalkTree replaced, kept as the reference
// it is held to: the slash-separated names, relative to dir, of every
// entry filepath.WalkDir visits that is not a directory, in its order.
func walkDirReference(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		names = append(names, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatalf("WalkDir %s: %v", dir, err)
	}
	return names
}

// walkVisits runs WalkTree on dir and returns the names it visited, in
// visit order, checking that every worker number is in [0, workers).
func walkVisits(t *testing.T, dir string, workers int) []string {
	t.Helper()
	var mu sync.Mutex
	var names []string
	err := WalkTree(dir, workers, func(w int, f TreeFile) error {
		if w < 0 || w >= max(workers, 1) {
			t.Errorf("visit on worker %d of %d", w, workers)
		}
		mu.Lock()
		names = append(names, f.Name)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("WalkTree(%s, %d): %v", dir, workers, err)
	}
	return names
}

// writeFile writes data to the slash-separated name under dir, making
// its directories.
func writeFile(t *testing.T, dir, name, data string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeEdgeTree writes a tree of the shapes a walk can get wrong: names
// that sort differently by component than by byte ("a/x", "a-b", "a.c",
// "ab"), a directory holding both files and subdirectories, an empty
// directory, a symlink to a file outside the tree and a dangling one.
// With dirLinks it also holds two symlinks to directories, which are
// visited as files and fail to read.
func writeEdgeTree(t *testing.T, dirLinks bool) string {
	t.Helper()
	dir := t.TempDir()
	rm := "2017-07-02 13:00:00,000 INFO x.RMAppImpl: application_1499000000000_0007 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED\n"
	for _, name := range []string{"a/x", "a-b", "a.c", "ab", "m/f1", "m/sub/g", "m/sub/h/i", "m/z", "m/zz/y"} {
		writeFile(t, dir, name, rm)
	}
	if err := os.Mkdir(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(t.TempDir(), "outside.log")
	writeFile(t, filepath.Dir(outside), "outside.log", rm)
	links := map[string]string{"m/link-out": outside, "m/dangling": filepath.Join(dir, "gone")}
	if dirLinks {
		links["b-dirlink"] = filepath.Join(dir, "m")
		links["m/sub/dirlink"] = t.TempDir()
	}
	for name, target := range links {
		if err := os.Symlink(target, filepath.Join(dir, filepath.FromSlash(name))); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeLongNamesTree writes a directory of 3,000 empty files with
// 200-byte names, too many to list in one getdents call, next to a
// symlink to a file, a dangling symlink and a symlink to a directory.
func writeLongNamesTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	big := filepath.Join(dir, "big")
	if err := os.Mkdir(big, 0o755); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("n", 195)
	for i := range 3000 {
		if err := os.WriteFile(filepath.Join(big, fmt.Sprintf("%s%05d", pad, i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, dir, "sub/f", "x\n")
	for name, target := range map[string]string{"file-link": "../sub/f", "dangling": "../gone", "dir-link": "../sub"} {
		if err := os.Symlink(target, filepath.Join(big, name)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestWalkTreeMatchesWalkDir holds WalkTree to filepath.WalkDir: on one
// worker it visits the same names in the same order, and on several it
// visits each of them once, in an order compareWalk sorts back into
// WalkDir's.
func TestWalkTreeMatchesWalkDir(t *testing.T) {
	trees := map[string]string{
		"edge":       writeEdgeTree(t, true),
		"long-names": writeLongNamesTree(t),
		"pristine":   filepath.Join("testdata", "golden", "pristine", "input"),
		"faulted":    filepath.Join("testdata", "golden", "faulted", "input"),
	}
	for name, dir := range trees {
		t.Run(name, func(t *testing.T) {
			want := walkDirReference(t, dir)
			if got := walkVisits(t, dir, 1); !slices.Equal(got, want) {
				t.Fatalf("one worker visited\n%q\nWalkDir visits\n%q", got, want)
			}
			if !slices.IsSortedFunc(want, compareWalk) {
				t.Fatalf("compareWalk does not order WalkDir's visits: %q", want)
			}
			for _, w := range []int{2, 4, 8} {
				got := walkVisits(t, dir, w)
				slices.SortFunc(got, compareWalk)
				if !slices.Equal(got, want) {
					t.Fatalf("%d workers visited\n%q\nWalkDir visits\n%q", w, got, want)
				}
			}
		})
	}
}

// TestWalkTreeEdges pins what the walk does at its edges: the symlinks
// below the root, a root that is a file, and a symlinked root.
func TestWalkTreeEdges(t *testing.T) {
	dir := writeEdgeTree(t, true)
	read := func(f TreeFile) error {
		r, err := f.Open()
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.ReadAll(r)
		return err
	}
	var read1 []string
	err := WalkTree(dir, 1, func(_ int, f TreeFile) error {
		err := read(f)
		if err == nil {
			read1 = append(read1, f.Name)
		}
		return err
	})
	// The symlinks to directories fail to read, in walk order; the
	// dangling symlink is skipped; the symlink out of the tree is read.
	want := fmt.Sprintf("read %s: is a directory\nread %s: is a directory",
		filepath.Join(dir, "b-dirlink"), filepath.Join(dir, "m", "sub", "dirlink"))
	if err == nil || err.Error() != want {
		t.Fatalf("WalkTree error:\n%v\nwant:\n%s", err, want)
	}
	if !slices.Contains(read1, "m/link-out") || slices.Contains(read1, "m/dangling") {
		t.Fatalf("read %q: want m/link-out and not m/dangling", read1)
	}

	// A root that is a file is visited as ".", through a symlink too.
	file := filepath.Join(dir, "a.c")
	fileLink := filepath.Join(t.TempDir(), "link")
	if err := os.Symlink(file, fileLink); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{file, fileLink} {
		if got := walkVisits(t, root, 2); !slices.Equal(got, []string{"."}) {
			t.Fatalf("WalkTree(%s) visited %q, want [.]", root, got)
		}
		if err := WalkTree(root, 1, func(_ int, f TreeFile) error { return read(f) }); err != nil {
			t.Fatalf("reading root file %s: %v", root, err)
		}
	}

	// A symlinked root is walked as the directory it points to.
	link := filepath.Join(t.TempDir(), "logs")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	if got, want := walkVisits(t, link, 1), walkDirReference(t, dir); !slices.Equal(got, want) {
		t.Fatalf("symlinked root visited\n%q\nwant\n%q", got, want)
	}

	if err := WalkTree(filepath.Join(dir, "missing"), 2, func(int, TreeFile) error { return nil }); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing root: %v, want fs.ErrNotExist", err)
	}
}

// writeTiedTree writes sixteen logs, each in its own directory, where
// log k names apps k and k+1 at the same millisecond, each after
// itself, so two logs name every app but the first. Correlation keeps equal-time events in the order the files
// were merged and takes the first name, so every app is named after the
// log that comes first in walk order, and a merge in any other order
// renames some app.
func writeTiedTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	const line = "2017-07-02 13:00:00,000 INFO x.RMAppManager$ApplicationSummary: Application application_1499000000000_%04d submitted: name=rm%02d type=SPARK queue=default\n"
	for k := 0; k < 16; k++ {
		writeFile(t, dir, fmt.Sprintf("rm%02d/yarn-resourcemanager.log", k), fmt.Sprintf(line, k, k)+fmt.Sprintf(line, k+1, k))
	}
	return dir
}

// TestMineDirWorkersAgree: MineDir renders the same JSON, or fails with
// the same error text, at every worker count, however the walk splits
// the tree between workers. On the tied tree any merge order but walk
// order renames an app.
func TestMineDirWorkersAgree(t *testing.T) {
	trees := map[string]string{
		"edge":      writeEdgeTree(t, false),
		"edge+dirs": writeEdgeTree(t, true),
		"tied":      writeTiedTree(t),
	}
	for name, dir := range trees {
		t.Run(name, func(t *testing.T) {
			render := func(w int) string {
				rep, err := MineDir(dir, w)
				if err != nil {
					return "error: " + err.Error()
				}
				out, err := rep.JSON()
				if err != nil {
					t.Fatalf("JSON: %v", err)
				}
				return out
			}
			want := render(1)
			if strings.HasPrefix(want, "error: ") != (name == "edge+dirs") {
				t.Fatalf("workers=1: %s", want)
			}
			if name == "tied" && !strings.Contains(want, `"name": "rm07"`) {
				t.Fatalf("tied tree's apps not named after their first log:\n%s", want)
			}
			for i := 0; i < 20; i++ {
				for _, w := range []int{2, 4, 8} {
					if got := render(w); got != want {
						t.Fatalf("run %d, workers=%d:\n%s\nwant (workers=1):\n%s", i, w, got, want)
					}
				}
			}
		})
	}
}
