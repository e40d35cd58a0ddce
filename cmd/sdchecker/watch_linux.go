package main

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
)

// watchMask is what a watched directory reports: a file in it written
// or truncated, and an entry created or moved into it. IN_ONLYDIR makes
// a watch on anything but a directory fail.
const watchMask = syscall.IN_MODIFY | syscall.IN_CREATE | syscall.IN_MOVED_TO | syscall.IN_ONLYDIR

// watcher is one inotify instance over the directories of a log tree.
// Its reader goroutine (run) collects the names the kernel reports and
// signals wake; the scanner takes them at its next poll. The instance is
// non-blocking and wrapped in an os.File, so run parks in the runtime
// poller and close ends it.
type watcher struct {
	root string
	f    *os.File
	rc   syscall.RawConn
	// wake holds one token while names wait to be taken.
	wake chan struct{}

	evMu sync.Mutex // guards everything below
	// dirs maps each watch descriptor to its directory's slash-separated
	// name relative to the root ("" for the root); wds is its inverse.
	dirs map[int32]string
	wds  map[string]int32
	// entered holds the directories a full walk listed that have no
	// watch yet; addEntered watches them.
	entered []string
	// files and newDirs are what the kernel named since the last take:
	// files written, created or moved in, and directories created or
	// moved in, whose contents no watch has seen.
	files    map[string]struct{}
	newDirs  []string
	overflow bool // the kernel's queue overflowed: events were lost
	closed   bool
}

func newWatcher(root string) (*watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, os.NewSyscallError("inotify_init1", err)
	}
	f := os.NewFile(uintptr(fd), "inotify")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &watcher{
		root: root, f: f, rc: rc,
		wake:  make(chan struct{}, 1),
		dirs:  make(map[int32]string),
		wds:   make(map[string]int32),
		files: make(map[string]struct{}),
	}, nil
}

// run reads events until the watcher is closed.
func (w *watcher) run() {
	buf := make([]byte, 64<<10)
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			return
		}
		w.evMu.Lock()
		w.decode(buf[:n])
		w.evMu.Unlock()
		w.signal()
	}
}

// signal leaves the wake token, unless one is already waiting.
func (w *watcher) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// decode folds a buffer of inotify events into the pending names; evMu
// is held. An event for a descriptor the watcher does not know (its
// watch was removed) is dropped.
func (w *watcher) decode(buf []byte) {
	for len(buf) >= syscall.SizeofInotifyEvent {
		wd := int32(binary.NativeEndian.Uint32(buf[0:]))
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[12:]))
		if end > len(buf) {
			return
		}
		name := buf[syscall.SizeofInotifyEvent:end]
		if i := slices.Index(name, 0); i >= 0 {
			name = name[:i]
		}
		buf = buf[end:]
		if mask&syscall.IN_Q_OVERFLOW != 0 {
			w.overflow = true
			continue
		}
		dir, ok := w.dirs[wd]
		switch {
		case !ok:
		case mask&syscall.IN_IGNORED != 0: // the directory is gone
			delete(w.dirs, wd)
			if w.wds[dir] == wd {
				delete(w.wds, dir)
			}
			w.overflow = w.overflow || dir == "" // the wake walks, which reports why
		case len(name) == 0:
		case mask&syscall.IN_ISDIR != 0:
			w.newDirs = append(w.newDirs, joinName(dir, string(name)))
		default:
			w.files[joinName(dir, string(name))] = struct{}{}
		}
	}
}

// take hands over what was named since the last take: the files, in
// name order, appended to names; the new directories; and whether
// events were lost, so that only a full walk is sure to see everything.
func (w *watcher) take(names []string) (_ []string, dirs []string, overflow bool) {
	w.evMu.Lock()
	defer w.evMu.Unlock()
	start := len(names)
	for name := range w.files {
		names = append(names, name)
	}
	clear(w.files)
	slices.Sort(names[start:])
	dirs, w.newDirs = w.newDirs, nil
	overflow, w.overflow = w.overflow, false
	return names, dirs, overflow
}

// enter notes a directory a full walk is about to list, for addEntered
// to watch unless it already is.
func (w *watcher) enter(name string) {
	w.evMu.Lock()
	if _, ok := w.wds[name]; !ok && !w.closed {
		w.entered = append(w.entered, name)
	}
	w.evMu.Unlock()
}

// addEntered watches the directories enter noted, after the poll that
// walked them, outside the server's lock. It reports whether the watch
// covers the tree: it is live, watches the root, and noted nothing new,
// whose lines written before its watch only a walk finds.
func (w *watcher) addEntered() (covered bool, err error) {
	w.evMu.Lock()
	names := w.entered
	w.entered = nil
	w.evMu.Unlock()
	for _, name := range names {
		if err := w.watch(name); err != nil {
			return false, err
		}
	}
	w.evMu.Lock()
	defer w.evMu.Unlock()
	_, root := w.wds[""]
	return len(names) == 0 && root && !w.closed, nil
}

// watch adds a watch on the directory called name. A directory that
// vanished, or is not one, is not watched and not an error; neither is
// one the watcher may not read, which the full walk reports. The error
// returned means the watcher cannot go on: the watch limit is reached.
func (w *watcher) watch(name string) error {
	path := filepath.Join(w.root, filepath.FromSlash(name))
	w.evMu.Lock()
	defer w.evMu.Unlock()
	if w.closed {
		return nil
	}
	var wd int
	var err error
	if cerr := w.rc.Control(func(fd uintptr) {
		wd, err = syscall.InotifyAddWatch(int(fd), path, watchMask)
	}); cerr != nil {
		return nil // closed under us
	}
	switch {
	case errors.Is(err, syscall.ENOSPC), errors.Is(err, syscall.ENOMEM):
		return os.NewSyscallError("inotify_add_watch", err)
	case err != nil:
		return nil
	}
	// A directory moved within the tree keeps its descriptor.
	if old, ok := w.dirs[int32(wd)]; ok && old != name {
		delete(w.wds, old)
	}
	w.dirs[int32(wd)] = name
	w.wds[name] = int32(wd)
	return nil
}

// watched returns how many directories hold a watch.
func (w *watcher) watched() int {
	w.evMu.Lock()
	defer w.evMu.Unlock()
	return len(w.dirs)
}

// close removes every watch and ends run. It leaves a wake, so that
// the poller learns the watch is gone.
func (w *watcher) close() {
	w.evMu.Lock()
	defer w.evMu.Unlock()
	if !w.closed {
		w.closed = true
		w.f.Close()
		clear(w.dirs)
		clear(w.wds)
		w.signal()
	}
}
