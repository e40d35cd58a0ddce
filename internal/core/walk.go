package core

import (
	"cmp"
	"errors"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The tree source: one walk over a log tree that the offline miner and
// the live tailer share. SDchecker's input is the per-container stderr
// files YARN keeps, one directory per container, so a log tree holds
// more directories than files, and the walk is as much directory reads
// as file opens. Every worker walks its own part of the tree depth
// first, reading each directory through its open descriptor and opening
// each file relative to it, and visits each file where it finds it, so
// the walk overlaps whatever the visitor does with the file. An idle
// worker is handed half of what a busy one has still to walk at its
// shallowest level, so few hand-offs balance the workers. On Linux the
// descriptors are raw: a directory is listed by getdents64 into its
// worker's buffer and a file is read by read and pread, with no os.File
// made for either.

// TreeFile is one file WalkTree visits. It is valid only during the
// visit, while its directory is held open.
type TreeFile struct {
	// Name is the file's slash-separated name relative to the root, or
	// "." when the root itself is a file.
	Name string
	dir  *treeDir
	base string
}

// Open opens the file for reading, relative to its directory's
// descriptor where the platform allows it. A symlink is followed.
func (f TreeFile) Open() (*TreeReader, error) { return f.dir.openFile(f.base) }

// TreeFileAt is the file called name, slash-separated and relative to
// the tree at root, as WalkTree would visit it; Open opens it by its
// full path. The live tailer drains the files a watch names this way,
// without walking the tree.
func TreeFileAt(root, name string) TreeFile {
	return TreeFile{Name: name, dir: cwdDir, base: filepath.Join(root, filepath.FromSlash(name))}
}

// treeDir is a directory of the tree, open while a worker walks its
// entries or while a run of them waits on the shared stack.
type treeDir struct {
	h    dirHandle    // its open descriptor
	root string       // the OS path of the tree's root; "" for cwdDir
	name string       // slash-separated, relative to the root; "" at the root
	refs atomic.Int32 // dirRuns of its entries not yet walked: the last one closes h
}

// cwdDir stands for the working directory: a file in it is opened by
// the path it is given.
var cwdDir = &treeDir{h: cwdHandle}

// dirEnt is one entry of a listed directory. On Linux its name is
// followed by a NUL in the string it shares with its directory's other
// names, which openat relies on.
type dirEnt struct {
	name string
	dir  bool // a directory, not a symlink to one
}

// path returns d's OS path, for error text: the root as WalkTree was
// given it, and below the root as filepath.Join spells it.
func (d *treeDir) path() string {
	if d.name == "" {
		return d.root
	}
	return d.join("")
}

// join returns the OS path of the entry called base in d, spelled as
// filepath.Join spells it; in cwdDir, base is that path already. It is
// made only for error text, and on the platforms without openat.
func (d *treeDir) join(base string) string {
	if d.root == "" {
		return base
	}
	return filepath.Join(d.root, filepath.FromSlash(d.name), base)
}

// WalkTree visits every entry of the log tree at dir that is not a
// directory, passing its worker's number, in [0, workers), and the file;
// with more than one worker, visit runs on several goroutines at once.
// A symlinked root is followed, as os.Open follows it; below the root a
// symlink is visited as a file, so Open follows it. An unreadable root
// is returned at once. An entry that vanished since it was listed is
// skipped, whether the walk or visit meets its fs.ErrNotExist. Every
// other error is joined, in walk order, into the returned error once the
// whole tree has been walked.
//
// Each worker walks depth first in name order. While another worker is
// idle, it hands that worker the later half of the entries still ahead
// of it in the shallowest directory it is inside, and walks on with the
// earlier half. So with one worker files are visited in the order of
// filepath.WalkDir; with several, each file is visited once, on any
// worker, and compareWalk restores walk order. Workers start as entries
// are handed off, never more than workers, and each holds one descriptor
// per directory level it is inside.
func WalkTree(dir string, workers int, visit func(worker int, f TreeFile) error) error {
	return WalkTreeDirs(dir, workers, nil, visit)
}

// WalkTreeDirs is WalkTree that also calls entered, when it is not nil,
// with each directory's slash-separated name relative to dir ("" for
// dir itself) before it lists the directory. With more than one worker,
// entered runs on several goroutines at once.
func WalkTreeDirs(dir string, workers int, entered func(name string), visit func(worker int, f TreeFile) error) error {
	root, isDir, err := openRoot(dir)
	if err != nil {
		return err
	}
	if !isDir {
		return visit(0, TreeFile{Name: ".", dir: cwdDir, base: dir})
	}
	w := &treeWalk{visit: visit, entered: entered, workers: max(workers, 1), started: 1, busy: 1}
	w.cond.L = &w.mu
	w.setSpare()
	lb := listBufs.Get().(*listBuf)
	w.run(0, lb, w.enter(lb, &treeDir{h: root, root: dir}))
	w.wg.Wait()
	slices.SortStableFunc(w.errs, func(a, b treeErr) int { return compareWalk(a.name, b.name) })
	errs := make([]error, len(w.errs))
	for i, e := range w.errs {
		errs[i] = e.err
	}
	return errors.Join(errs...)
}

// compareWalk orders two slash-separated names as a depth-first walk in
// name order meets them: component by component, so "a/x" comes before
// "a-b", which byte order puts after it.
func compareWalk(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	switch {
	case i == len(a) || i == len(b):
		return cmp.Compare(len(a), len(b))
	case a[i] == '/':
		return -1 // a's component ended: it is a prefix of b's
	case b[i] == '/':
		return 1
	}
	return cmp.Compare(a[i], b[i])
}

// treeWalk is one WalkTree call's shared state.
type treeWalk struct {
	visit   func(worker int, f TreeFile) error
	entered func(name string) // nil, or called before each directory is listed
	workers int
	wg      sync.WaitGroup // the workers started after the first

	mu      sync.Mutex
	cond    sync.Cond // entries were handed off, or the walk ended
	stack   []dirRun  // handed-off entries
	started int       // workers started, the caller's included
	busy    int       // workers walking
	idle    int       // workers waiting for entries
	errs    []treeErr

	// spare is set while handed-off entries would be taken at once, by an
	// idle worker or a new one; it spares walkers the lock.
	spare atomic.Bool
}

// dirRun is a run of one directory's entries, in name order, still to be
// walked. It holds one of the directory's refs.
type dirRun struct {
	d    *treeDir
	ents []dirEnt
}

// treeErr is an error met at the entry called name.
type treeErr struct {
	name string
	err  error
}

// setSpare recomputes spare; mu is held.
func (w *treeWalk) setSpare() {
	w.spare.Store(w.idle > len(w.stack) || w.started < w.workers)
}

// run walks s and then every run handed to it, until the walk ends,
// listing directories through lb, which it then gives back.
func (w *treeWalk) run(worker int, lb *listBuf, s dirRun) {
	for ok := true; ok; s, ok = w.next() {
		w.walk(worker, lb, s)
	}
	listBufs.Put(lb)
}

// listBufs holds the workers' listing buffers between walks, so a walk
// repeated every second, as the live tailer's is, does not make them
// again.
var listBufs = sync.Pool{New: func() any { return new(listBuf) }}

// next retires the run the caller walked and waits for another: it
// reports false once no worker is walking and none is handed off.
func (w *treeWalk) next() (dirRun, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.busy--
	for len(w.stack) == 0 && w.busy > 0 {
		w.idle++
		w.setSpare()
		w.cond.Wait()
		w.idle--
	}
	if len(w.stack) == 0 {
		w.cond.Broadcast() // the walk is over: release the idle workers
		w.setSpare()
		return dirRun{}, false
	}
	s := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.busy++
	w.setSpare()
	return s, true
}

// handOff gives s to an idle worker, or to a new one while fewer than
// workers run; it reports false, s kept by the caller, when neither can
// take it.
func (w *treeWalk) handOff(s dirRun) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.idle > len(w.stack):
		w.stack = append(w.stack, s)
		w.cond.Signal()
	case w.started < w.workers:
		worker := w.started
		w.started++
		w.busy++
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.run(worker, listBufs.Get().(*listBuf), s)
		}()
	default:
		return false
	}
	w.setSpare()
	return true
}

// walk walks the entries of s depth first, visiting each file where it
// finds it. path holds the runs of the directories it is inside, the
// deepest last.
func (w *treeWalk) walk(worker int, lb *listBuf, s dirRun) {
	path := []dirRun{s}
	for len(path) > 0 {
		if w.spare.Load() {
			w.split(path)
		}
		top := &path[len(path)-1]
		if len(top.ents) == 0 {
			top.d.release()
			path = path[:len(path)-1]
			continue
		}
		d, e := top.d, top.ents[0]
		top.ents = top.ents[1:]
		base := e.name
		name := base
		if d.name != "" {
			name = d.name + "/" + base
		}
		if !e.dir {
			if err := w.visit(worker, TreeFile{Name: name, dir: d, base: base}); err != nil {
				w.fail(name, err)
			}
			continue
		}
		h, err := d.openDir(base)
		if err != nil {
			w.fail(name, err)
			continue
		}
		path = append(path, w.enter(lb, &treeDir{h: h, root: d.root, name: name}))
	}
}

// split hands the later half of the shallowest run in path with two
// entries or more to another worker, if one takes it.
func (w *treeWalk) split(path []dirRun) {
	for i := range path {
		s := &path[i]
		if len(s.ents) < 2 {
			continue
		}
		mid := len(s.ents) / 2
		s.d.refs.Add(1)
		if w.handOff(dirRun{s.d, s.ents[mid:]}) {
			s.ents = s.ents[:mid]
		} else {
			s.d.refs.Add(-1)
		}
		return
	}
}

// enter lists the open directory d through lb into a run, in name
// order.
func (w *treeWalk) enter(lb *listBuf, d *treeDir) dirRun {
	if w.entered != nil {
		w.entered(d.name)
	}
	ents, err := d.list(lb)
	if err != nil {
		w.fail(d.name, err) // and walk what was read
	}
	slices.SortFunc(ents, func(a, b dirEnt) int { return strings.Compare(a.name, b.name) })
	d.refs.Store(1)
	return dirRun{d, ents}
}

// release drops one run's hold on d, closing d after the last.
func (d *treeDir) release() {
	if d.refs.Add(-1) == 0 {
		d.close()
	}
}

// fail records err met at name, unless the entry vanished.
func (w *treeWalk) fail(name string, err error) {
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	w.mu.Lock()
	w.errs = append(w.errs, treeErr{name, err})
	w.mu.Unlock()
}
