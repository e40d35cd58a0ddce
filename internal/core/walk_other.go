//go:build !linux

package core

import "os"

// Where the syscall package has no Openat, a tree entry is opened by
// its full path, and read through an os.File.

// dirHandle is a directory's open os.File.
type dirHandle = *os.File

// cwdHandle stands for the working directory: an entry of it is opened
// by the path it is given.
var cwdHandle dirHandle

// openRoot opens the tree's root, following a symlink, and reports
// whether it is a directory; one that is not is closed.
func openRoot(path string) (dirHandle, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	info, err := f.Stat()
	if err != nil || !info.IsDir() {
		f.Close()
		return nil, false, err
	}
	return f, true, nil
}

func (d *treeDir) openDir(base string) (dirHandle, error) { return os.Open(d.join(base)) }

func (d *treeDir) openFile(base string) (*TreeReader, error) {
	f, err := os.Open(d.join(base))
	if err != nil {
		return nil, err
	}
	return &TreeReader{f}, nil
}

func (d *treeDir) close() { d.h.Close() }

// listBuf is one worker's listing state; os.File.ReadDir keeps its own.
type listBuf struct{}

// list reads d's entries, in directory order. After an error it returns
// what it read before it.
func (d *treeDir) list(*listBuf) ([]dirEnt, error) {
	des, err := d.h.ReadDir(-1)
	ents := make([]dirEnt, len(des))
	for i, de := range des {
		ents[i] = dirEnt{name: de.Name(), dir: de.IsDir()}
	}
	return ents, err
}

// TreeReader reads one file of the tree through its os.File.
type TreeReader struct{ f *os.File }

// Read reads from the file's offset.
func (r *TreeReader) Read(p []byte) (int, error) { return r.f.Read(p) }

// ReadAt reads len(p) bytes at off; it returns io.EOF if the file ends
// first.
func (r *TreeReader) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }

// Size returns the file's size.
func (r *TreeReader) Size() (int64, error) {
	info, err := r.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Close closes the file.
func (r *TreeReader) Close() error { return r.f.Close() }
