package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
)

// dirent64 builds one linux_dirent64 record: the name NUL-terminated and
// padded to 8 bytes, or to reclen when that is larger.
func dirent64(ino uint64, typ uint8, name string, reclen int) []byte {
	reclen = max(reclen, (direntNameOff+len(name)+1+7)&^7)
	rec := make([]byte, reclen)
	binary.NativeEndian.PutUint64(rec, ino)
	binary.NativeEndian.PutUint64(rec[8:], 1) // d_off, not read
	binary.NativeEndian.PutUint16(rec[direntReclenOff:], uint16(reclen))
	rec[direntTypeOff] = typ
	copy(rec[direntNameOff:], name)
	return rec
}

// decoded is one entry decodeDirents returned.
type decoded struct {
	name string
	typ  uint8
}

func decodedEnts(names []byte, recs []direntRec) []decoded {
	var out []decoded
	start := 0
	for _, r := range recs {
		if names[r.end-1] != 0 {
			panic("name not NUL-terminated")
		}
		out = append(out, decoded{string(names[start : r.end-1]), r.typ})
		start = r.end
	}
	return out
}

// TestDecodeDirents decodes hand-built getdents64 records as os.ReadDir
// does.
func TestDecodeDirents(t *testing.T) {
	long := strings.Repeat("n", 255)
	cat := func(recs ...[]byte) []byte { return slices.Concat(recs...) }
	cases := []struct {
		name string
		buf  []byte
		want []decoded
	}{
		{"empty", nil, nil},
		{"dots skipped", cat(
			dirent64(1, syscall.DT_DIR, ".", 0),
			dirent64(2, syscall.DT_DIR, "..", 0),
			dirent64(3, syscall.DT_REG, "stderr", 0),
		), []decoded{{"stderr", syscall.DT_REG}}},
		{"names like dots kept", cat(
			dirent64(1, syscall.DT_REG, "...", 0),
			dirent64(2, syscall.DT_REG, ".a", 0),
		), []decoded{{"...", syscall.DT_REG}, {".a", syscall.DT_REG}}},
		{"NUL padding", cat(
			dirent64(1, syscall.DT_REG, "a", 64),
			dirent64(2, syscall.DT_REG, "exactly8", 0),
			dirent64(3, syscall.DT_DIR, "b", 0),
		), []decoded{{"a", syscall.DT_REG}, {"exactly8", syscall.DT_REG}, {"b", syscall.DT_DIR}}},
		{"types kept", cat(
			dirent64(1, syscall.DT_LNK, "link", 0),
			dirent64(2, syscall.DT_UNKNOWN, "unknown", 0),
			dirent64(3, syscall.DT_FIFO, "fifo", 0),
		), []decoded{{"link", syscall.DT_LNK}, {"unknown", syscall.DT_UNKNOWN}, {"fifo", syscall.DT_FIFO}}},
		{"inode 0 skipped", cat(
			dirent64(0, syscall.DT_REG, "deleted", 0),
			dirent64(5, syscall.DT_REG, "kept", 0),
		), []decoded{{"kept", syscall.DT_REG}}},
		{"255-byte name", cat(
			dirent64(1, syscall.DT_REG, long, 0),
			dirent64(2, syscall.DT_REG, "after", 0),
		), []decoded{{long, syscall.DT_REG}, {"after", syscall.DT_REG}}},
		{"record past the buffer ends it", cat(
			dirent64(1, syscall.DT_REG, "whole", 0),
			dirent64(2, syscall.DT_REG, "cut", 0)[:16],
		), []decoded{{"whole", syscall.DT_REG}}},
		{"zero reclen ends it", cat(
			dirent64(1, syscall.DT_REG, "whole", 0),
			make([]byte, 32),
		), []decoded{{"whole", syscall.DT_REG}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			names, recs := decodeDirents(c.buf, nil, nil)
			if got := decodedEnts(names, recs); !slices.Equal(got, c.want) {
				t.Fatalf("decoded %q, want %q", got, c.want)
			}
		})
	}

	// A directory takes several getdents calls: each call's entries are
	// appended to the ones before.
	names, recs := decodeDirents(dirent64(1, syscall.DT_REG, "a", 0), nil, nil)
	names, recs = decodeDirents(dirent64(2, syscall.DT_DIR, "bc", 0), names, recs)
	if got, want := decodedEnts(names, recs), []decoded{{"a", syscall.DT_REG}, {"bc", syscall.DT_DIR}}; !slices.Equal(got, want) {
		t.Fatalf("two calls decoded %q, want %q", got, want)
	}
}

// TestListLstatsUnknownTypes: an entry the file system gives no type is
// lstat'ed, as os.ReadDir does: a directory is walked into, a symlink
// to one is not, one that vanished is dropped, and any other lstat
// error is returned with the entries before it.
func TestListLstatsUnknownTypes(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "file", "x")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub", filepath.Join(dir, "subLink")); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i, name := range []string{"file", "gone", "sub", "subLink"} {
		buf = append(buf, dirent64(uint64(i+1), syscall.DT_UNKNOWN, name, 0)...)
	}
	var lb listBuf
	lb.names, lb.recs = decodeDirents(buf, nil, nil)
	if err := lb.lstatUnknown(dir); err != nil {
		t.Fatal(err)
	}
	want := []dirEnt{{"file", false}, {"sub", true}, {"subLink", false}}
	if got := lb.ents(); !slices.Equal(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
	}

	// Listed under a path that is a file, every lstat fails with ENOTDIR.
	buf = slices.Concat(dirent64(1, syscall.DT_REG, "known", 0), dirent64(2, syscall.DT_UNKNOWN, "x", 0), dirent64(3, syscall.DT_REG, "after", 0))
	lb.names, lb.recs = decodeDirents(buf, lb.names[:0], lb.recs[:0])
	file := filepath.Join(dir, "file")
	err := lb.lstatUnknown(file)
	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Op != "lstat" || pe.Path != file+"/x" || !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("lstat error %#v, want lstat %s/x: ENOTDIR", err, file)
	}
	if got, want := lb.ents(), []dirEnt{{"known", false}}; !slices.Equal(got, want) {
		t.Fatalf("entries after the error %v, want %v", got, want)
	}
}

// TestTreeReaderErrors: the raw reader's errors are the *fs.PathError an
// os.File gives, naming the file's path, and a second Close fails
// rather than closing a descriptor the number was reused for.
func TestTreeReaderErrors(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "sub/f", "0123456789")
	var r *TreeReader
	err := WalkTree(dir, 1, func(_ int, f TreeFile) error {
		var err error
		r, err = f.Open()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sub", "f")
	if n, err := r.Size(); n != 10 || err != nil {
		t.Fatalf("Size = %d, %v", n, err)
	}
	p := make([]byte, 4)
	if n, err := r.ReadAt(p, 8); n != 2 || err != io.EOF || string(p[:2]) != "89" {
		t.Fatalf("ReadAt(8) = %d %q, %v; want 2 \"89\", EOF", n, p[:n], err)
	}
	if n, err := r.ReadAt(p, 2); n != 4 || err != nil || string(p) != "2345" {
		t.Fatalf("ReadAt(2) = %d %q, %v", n, p[:n], err)
	}
	if _, err := r.ReadAt(p, -1); err == nil || err.Error() != "readat "+path+": negative offset" {
		t.Fatalf("ReadAt(-1): %v", err)
	}
	if data, err := io.ReadAll(r); string(data) != "0123456789" || err != nil {
		t.Fatalf("ReadAll = %q, %v", data, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for op, err := range map[string]error{
		"close": r.Close(),
		"read":  func() error { _, err := r.Read(p); return err }(),
		"stat":  func() error { _, err := r.Size(); return err }(),
	} {
		if pe, ok := err.(*fs.PathError); !ok || pe.Op != op || pe.Path != path {
			t.Errorf("%s after Close: %#v, want a PathError naming %s", op, err, path)
		}
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// writeWideTree writes 8 directories of 8 directories of 3 files, and a
// symlink to a directory, which is visited as a file and fails to read.
func writeWideTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i := range 8 {
		for j := range 8 {
			for k := range 3 {
				writeFile(t, dir, fmt.Sprintf("d%d/e%d/f%d", i, j, k), "x\n")
			}
		}
	}
	if err := os.Symlink("d0", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWalkTreeClosesDescriptors: nothing finalizes a raw descriptor, so
// every walk must close each one it opened, at one worker and at four,
// whatever the visits do: read and close the file, fail, or remove a
// directory the walk has still to enter or is walking.
func TestWalkTreeClosesDescriptors(t *testing.T) {
	walk := func(workers int) {
		dir := writeWideTree(t)
		var handedOff atomic.Bool
		err := WalkTree(dir, workers, func(w int, f TreeFile) error {
			if w != 0 {
				handedOff.Store(true)
			}
			r, err := f.Open()
			if err != nil {
				return err
			}
			_, err = io.ReadAll(r)
			r.Close()
			switch {
			case err != nil:
				return err
			case strings.HasSuffix(f.Name, "/f1"):
				return errors.New("visit failed")
			case f.Name == "d1/e1/f0":
				return errors.Join(os.RemoveAll(filepath.Join(dir, "d1", "e1")), os.RemoveAll(filepath.Join(dir, "d6")))
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "visit failed") || !strings.Contains(err.Error(), "is a directory") {
			t.Fatalf("workers=%d: WalkTree error %v, want the failed visits and the directory link", workers, err)
		}
		if workers > 1 && !handedOff.Load() {
			t.Fatalf("workers=%d: no run was handed off", workers)
		}
	}
	for _, workers := range []int{1, 4} {
		walk(workers) // warm up: the runtime may hold descriptors of its own
		before := openFDs(t)
		for range 5 {
			walk(workers)
		}
		if after := openFDs(t); after != before {
			t.Errorf("workers=%d: %d descriptors open before the walks, %d after", workers, before, after)
		}
	}
}

// TestMineDirClosesDescriptors: MineDir closes every descriptor, on a
// tree that mines and on one whose read fails.
func TestMineDirClosesDescriptors(t *testing.T) {
	trees := []string{writeEdgeTree(t, false), writeEdgeTree(t, true), writeWideTree(t)}
	mine := func() {
		for _, dir := range trees {
			for _, w := range []int{1, 4} {
				MineDir(dir, w)
			}
		}
	}
	mine()
	before := openFDs(t)
	for range 5 {
		mine()
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open before mining, %d after", before, after)
	}
}
