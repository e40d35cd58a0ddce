package core

import (
	"io/fs"
	"os"
	"syscall"
)

// On Linux a tree entry is opened relative to its directory's
// descriptor, so the kernel resolves one name, not the whole path.

func (d *treeDir) openFile(name string) (*os.File, error) { return d.openat(name, 0) }

func (d *treeDir) openDir(name string) (*os.File, error) {
	return d.openat(name, syscall.O_DIRECTORY)
}

// atFDCWD is Linux's AT_FDCWD: openat resolves a relative name from the
// working directory.
const atFDCWD = -100

func (d *treeDir) openat(name string, flags int) (*os.File, error) {
	dirfd := atFDCWD
	if d.f != nil {
		dirfd = int(d.f.Fd())
	}
	path := d.join(name)
	for {
		fd, err := syscall.Openat(dirfd, name, syscall.O_RDONLY|syscall.O_CLOEXEC|flags, 0)
		if err == nil {
			return os.NewFile(uintptr(fd), path), nil
		}
		if err != syscall.EINTR {
			return nil, &fs.PathError{Op: "open", Path: path, Err: err}
		}
	}
}
