package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"slices"
	"syscall"
	"unsafe"
)

// On Linux the walk works on raw descriptors. A tree entry is opened
// relative to its directory's descriptor, so the kernel resolves one
// name, not the whole path; a directory is listed by getdents64 into its
// worker's buffer, and a file is read by read and pread. No os.File is
// made, so there is no finalizer: every descriptor is closed by the walk
// or by the TreeReader's Close.

// dirHandle is a directory's open descriptor.
type dirHandle = int

// cwdHandle is Linux's AT_FDCWD: openat resolves a relative name from
// the working directory.
const cwdHandle dirHandle = -100

// openat opens the entry called base in d, read-only, retrying EINTR.
// Below cwdDir base is a listed name, NUL-terminated in its directory's
// names string, so the kernel reads it in place rather than from a copy.
func (d *treeDir) openat(base string, flags int) (int, error) {
	flags |= syscall.O_RDONLY | syscall.O_CLOEXEC | syscall.O_LARGEFILE
	for {
		var fd int
		var err error
		if d == cwdDir {
			fd, err = syscall.Openat(d.h, base, flags, 0)
		} else {
			r, _, e := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(d.h), uintptr(unsafe.Pointer(unsafe.StringData(base))), uintptr(flags), 0, 0, 0)
			if fd = int(r); e != 0 {
				err = e
			}
		}
		if err == nil {
			return fd, nil
		}
		if err != syscall.EINTR {
			return -1, &fs.PathError{Op: "open", Path: d.join(base), Err: err}
		}
	}
}

// fstat stats the open descriptor fd, retrying EINTR.
func fstat(fd int, st *syscall.Stat_t) error {
	for {
		if err := syscall.Fstat(fd, st); err != syscall.EINTR {
			return err
		}
	}
}

// openRoot opens the tree's root, following a symlink, and reports
// whether it is a directory; one that is not is closed.
func openRoot(path string) (dirHandle, bool, error) {
	fd, err := cwdDir.openat(path, 0)
	if err != nil {
		return -1, false, err
	}
	var st syscall.Stat_t
	if err := fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return -1, false, &fs.PathError{Op: "stat", Path: path, Err: err}
	}
	if st.Mode&syscall.S_IFMT != syscall.S_IFDIR {
		syscall.Close(fd)
		return -1, false, nil
	}
	return fd, true, nil
}

func (d *treeDir) openDir(base string) (dirHandle, error) {
	return d.openat(base, syscall.O_DIRECTORY)
}

func (d *treeDir) openFile(base string) (*TreeReader, error) {
	fd, err := d.openat(base, 0)
	if err != nil {
		return nil, err
	}
	return &TreeReader{fd: fd, dir: d, base: base}, nil
}

func (d *treeDir) close() { syscall.Close(d.h) }

// listBuf is one worker's listing state, reused for every directory it
// lists: the getdents64 buffer, and the names and records decoded from
// it for the directory being listed.
type listBuf struct {
	buf   []byte
	names []byte
	recs  []direntRec
}

// direntBufSize is the getdents64 buffer's size: a container's
// directory fits in one call, and a directory of thousands of
// applications takes a few dozen.
const direntBufSize = 32 << 10

// direntRec is one decoded entry: its name and the NUL after it end at
// end in the names decoded with it, where the previous entry's end, and
// typ is its d_type.
type direntRec struct {
	end int
	typ uint8
}

// dtGone marks a record whose entry vanished before its type was known.
const dtGone = 0xff

// The linux_dirent64 fields decodeDirents reads; the layout is the same
// on every architecture.
const (
	direntReclenOff = int(unsafe.Offsetof(syscall.Dirent{}.Reclen))
	direntTypeOff   = int(unsafe.Offsetof(syscall.Dirent{}.Type))
	direntNameOff   = int(unsafe.Offsetof(syscall.Dirent{}.Name))
)

// decodeDirents decodes the linux_dirent64 records in buf, as os.ReadDir
// does: it appends each entry's name and a NUL to names and its record
// to recs,
// skipping "." and "..", entries of inode 0, and stopping at a record
// that does not fit.
func decodeDirents(buf, names []byte, recs []direntRec) ([]byte, []direntRec) {
	for len(buf) > direntNameOff {
		reclen := int(binary.NativeEndian.Uint16(buf[direntReclenOff:]))
		if reclen <= direntNameOff || reclen > len(buf) {
			break
		}
		rec := buf[:reclen]
		buf = buf[reclen:]
		if binary.NativeEndian.Uint64(rec) == 0 {
			continue
		}
		name := rec[direntNameOff:]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		if string(name) == "." || string(name) == ".." {
			continue
		}
		names = append(append(names, name...), 0)
		recs = append(recs, direntRec{end: len(names), typ: rec[direntTypeOff]})
	}
	return names, recs
}

// list reads d's entries, in directory order. Their names share one
// string, not a view of the buffer. An entry whose type the file system
// does not report is lstat'ed. After an error it returns what it read
// before it.
func (d *treeDir) list(lb *listBuf) ([]dirEnt, error) {
	if lb.buf == nil {
		lb.buf = make([]byte, direntBufSize)
	}
	lb.names, lb.recs = lb.names[:0], lb.recs[:0]
	var err error
	for {
		n, rerr := syscall.ReadDirent(d.h, lb.buf)
		if rerr == syscall.EINTR {
			continue
		}
		if rerr != nil {
			err = &fs.PathError{Op: "readdirent", Path: d.path(), Err: rerr}
			break
		}
		if n <= 0 {
			break
		}
		lb.names, lb.recs = decodeDirents(lb.buf[:n], lb.names, lb.recs)
	}
	if slices.ContainsFunc(lb.recs, func(r direntRec) bool { return r.typ == syscall.DT_UNKNOWN }) {
		if lerr := lb.lstatUnknown(d.path()); lerr != nil {
			err = lerr // os.ReadDir meets it before any later read's error
		}
	}
	return lb.ents(), err
}

// lstatUnknown lstats each entry of dir whose type the file system did
// not report, as os.ReadDir does: a directory's record becomes DT_DIR,
// a vanished entry's dtGone. At any other error it drops that entry and
// those after it and returns the error.
func (lb *listBuf) lstatUnknown(dir string) error {
	start := 0
	for i := range lb.recs {
		r := &lb.recs[i]
		if r.typ == syscall.DT_UNKNOWN {
			path := dir + "/" + string(lb.names[start:r.end-1])
			var st syscall.Stat_t
			err := lstat(path, &st)
			switch {
			case errors.Is(err, fs.ErrNotExist):
				r.typ = dtGone
			case err != nil:
				lb.recs = lb.recs[:i]
				return &fs.PathError{Op: "lstat", Path: path, Err: err}
			case st.Mode&syscall.S_IFMT == syscall.S_IFDIR:
				r.typ = syscall.DT_DIR
			}
		}
		start = r.end
	}
	return nil
}

// ents returns the entries decoded into lb, their names sharing one
// string in which each is followed by a NUL, for openat.
func (lb *listBuf) ents() []dirEnt {
	if len(lb.recs) == 0 {
		return nil
	}
	names := string(lb.names)
	ents := make([]dirEnt, 0, len(lb.recs))
	start := 0
	for _, r := range lb.recs {
		if r.typ != dtGone {
			ents = append(ents, dirEnt{name: names[start : r.end-1], dir: r.typ == syscall.DT_DIR})
		}
		start = r.end
	}
	return ents
}

// lstat stats path without following a final symlink, retrying EINTR.
func lstat(path string, st *syscall.Stat_t) error {
	for {
		if err := syscall.Lstat(path, st); err != syscall.EINTR {
			return err
		}
	}
}

// TreeReader reads one file of the tree through its raw descriptor. Its
// errors are the *fs.PathError an os.File gives, with the same Op and
// path; it is not safe for concurrent use.
type TreeReader struct {
	fd   int // -1 once closed
	dir  *treeDir
	base string
}

func (r *TreeReader) path() string { return r.dir.join(r.base) }

// Read reads from the file's offset, as os.File.Read does.
func (r *TreeReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		n, err := syscall.Read(r.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, &fs.PathError{Op: "read", Path: r.path(), Err: err}
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// ReadAt reads len(p) bytes at off by pread, as os.File.ReadAt does: it
// returns io.EOF if the file ends first.
func (r *TreeReader) ReadAt(p []byte, off int64) (n int, err error) {
	if off < 0 {
		return 0, &fs.PathError{Op: "readat", Path: r.path(), Err: errors.New("negative offset")}
	}
	for len(p) > 0 {
		m, err := syscall.Pread(r.fd, p, off)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return n, &fs.PathError{Op: "read", Path: r.path(), Err: err}
		case m == 0:
			return n, io.EOF
		}
		n += m
		p = p[m:]
		off += int64(m)
	}
	return n, nil
}

// Size returns the file's size by fstat.
func (r *TreeReader) Size() (int64, error) {
	var st syscall.Stat_t
	if err := fstat(r.fd, &st); err != nil {
		return 0, &fs.PathError{Op: "stat", Path: r.path(), Err: err}
	}
	return st.Size, nil
}

// Close closes the descriptor; a second Close fails with fs.ErrClosed.
func (r *TreeReader) Close() error {
	fd := r.fd
	if fd < 0 {
		return &fs.PathError{Op: "close", Path: r.path(), Err: fs.ErrClosed}
	}
	r.fd = -1
	if err := syscall.Close(fd); err != nil {
		return &fs.PathError{Op: "close", Path: r.path(), Err: err}
	}
	return nil
}
