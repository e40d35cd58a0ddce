//go:build !linux

package core

import "os"

// Where the syscall package has no Openat, a tree entry is opened by
// its full path.

func (d *treeDir) openFile(name string) (*os.File, error) { return os.Open(d.join(name)) }

func (d *treeDir) openDir(name string) (*os.File, error) { return os.Open(d.join(name)) }
