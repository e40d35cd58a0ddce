package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// dirScanner tails a log directory tree into a sharded stream: each poll
// feeds bytes appended since the previous one (and any newly created
// files), one FeedBlock per block read. It is the ingestion engine of
// liveServer, which -follow and -serve run.
type dirScanner struct {
	dir string
	// feed hands a file's block of whole lines to the stream
	// (ShardedStream.FeedBlock) and returns how many lines it took.
	feed  func(source, block string) int
	files map[string]fileState
	// pl, when set, times each poll's read phase (walk + drain) as one
	// StageRead batch — per poll, never per line.
	pl *obs.Pipeline
	// rd reads every drain; its buffer serves every file.
	rd core.BlockReader
	// w, when set, is the directory watch whose named files each poll
	// drains (on Linux); names is the list poll reuses, unseen the files
	// a reconciling walk fed lines from. Without w the walk is the only path.
	w             *watcher
	names, unseen []string
	// overflows and limits count the polls that fell back to the full
	// walk because the kernel dropped events, and the watches given up at
	// the limit; unwoken, the unseen files the next poll's watch did not name.
	overflows, limits, unwoken *metrics.Counter
}

// fileState is what the tailer keeps of a file between drains: how far
// it has read, and whether that offset sits inside an over-long line,
// whose next drain first discards through its newline.
type fileState struct {
	off      int64
	skipping bool
}

func newDirScanner(dir string, st *core.ShardedStream) *dirScanner {
	return &dirScanner{dir: dir, feed: st.FeedBlock, files: make(map[string]fileState)}
}

// poll is one ingestion pass: it drains what the watch named since the
// last one (each new directory walked), then, if full is set or the
// kernel dropped events, walks the whole tree. It returns the lines fed
// (absorption is asynchronous: Quiesce, then read EventCount) and
// whether it walked. A file or directory that vanished is skipped, and
// every other error joined into the returned one. The last walk's unseen
// files are judged here: the event of a write it met may have been late.
func (s *dirScanner) poll(full, reconcile bool) (fed int, walked bool, err error) {
	t := s.pl.Begin()
	var errs []error
	if s.w != nil {
		names, dirs, overflow := s.w.take(s.names[:0])
		s.names = names
		for _, name := range s.unseen {
			if _, ok := slices.BinarySearch(names, name); !ok && !slices.ContainsFunc(dirs, func(dir string) bool { return strings.HasPrefix(name, dir+"/") }) {
				s.unwoken.Inc()
			}
		}
		s.unseen = s.unseen[:0]
		if overflow {
			s.overflows.Inc()
			full, reconcile = true, false
		}
		for _, dir := range dirs {
			n, err := s.walk(dir, false)
			fed += n
			errs = append(errs, err)
		}
		for _, name := range names {
			n, err := s.drainFile(core.TreeFileAt(s.dir, name))
			fed += n
			if !errors.Is(err, fs.ErrNotExist) {
				errs = append(errs, err)
			}
		}
	}
	if full {
		n, err := s.walk("", reconcile)
		fed += n
		errs = append(errs, err)
	}
	if fed > 0 {
		s.pl.StageBatch(obs.StageRead, -1, t, fed)
	}
	return fed, full, errors.Join(errs...)
}

// walk drains every file in the directory called name ("" for the whole
// tree) and below it. The whole tree's walk notes each directory without
// a watch for watchEntered; below a new directory, each is watched
// before it is listed, so no line written there is missed. A reconciling
// walk notes each file it fed lines from in unseen.
func (s *dirScanner) walk(name string, reconcile bool) (fed int, err error) {
	root := s.dir
	var entered func(string)
	switch {
	case name != "":
		root = filepath.Join(s.dir, filepath.FromSlash(name))
		entered = func(rel string) {
			if err := s.w.watch(joinName(name, rel)); err != nil {
				s.stopWatch(err)
			}
		}
	case s.w != nil:
		entered = s.w.enter
	}
	err = core.WalkTreeDirs(root, 1, entered, func(_ int, f core.TreeFile) error {
		f.Name = joinName(name, f.Name)
		n, err := s.drainFile(f)
		fed += n
		if reconcile && n > 0 {
			s.unseen = append(s.unseen, f.Name)
		}
		return err
	})
	if name != "" && errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	return fed, err
}

// joinName is the slash-separated name of the entry base in the
// directory called dir, where "" is the root; base "" or "." is dir.
func joinName(dir, base string) string {
	switch {
	case dir == "":
		return base
	case base == "" || base == ".":
		return dir
	}
	return dir + "/" + base
}

// watchEntered watches the directories the walks listed without a
// watch. The server runs it after a poll, outside its lock, so that the
// first poll's answer does not wait for a watch on every directory. It
// reports whether the watch covers the tree (watcher.addEntered).
func (s *dirScanner) watchEntered() (covered bool) {
	covered, err := s.w.addEntered()
	if err != nil {
		s.stopWatch(err)
	}
	return covered
}

// stopWatch gives the watch up after err, which only the watch limit
// returns, and leaves the full walk as the only path.
func (s *dirScanner) stopWatch(err error) {
	s.w.close()
	s.limits.Inc()
	fmt.Printf("sdchecker: watch: %v; only the 1 s walk finds new lines\n", err)
}

// followServer builds the server -follow runs; tests wrap it.
var followServer = newLiveServer

// followDir is -serve's ingest loop without HTTP, evicting nothing: it
// prints the summary to out each second in which new scheduling events
// were absorbed, until done is closed (a nil done never is). Scan errors
// are printed and polling goes on; only a dir missing at start fails.
func followDir(dir string, workers int, out io.Writer, done <-chan struct{}) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	o := defaultServeOptions(workers)
	o.retain, o.maxApps = -1, -1
	srv := followServer(dir, o)
	srv.run()
	defer srv.close()
	fmt.Fprintf(out, "sdchecker: following %s (interrupt to stop)\n", dir)
	for last := -1; ; {
		select {
		case <-done:
			return nil
		case <-time.After(time.Second):
		}
		srv.mu.Lock() // held across a poll and its Quiesce
		if n := srv.st.EventCount(); n != last {
			last = n
			rep := srv.st.Report()
			rep.FilesParsed, rep.LinesParsed = len(srv.sc.files), int(srv.reg.Counter("core_stream_lines_total").Value())
			fmt.Fprintf(out, "\n--- %s ---\n%s", time.Now().Format("15:04:05"), rep.Format())
		}
		srv.mu.Unlock()
	}
}

// drainFile feeds every complete line of f appended since the recorded
// offset and advances the offset by the bytes those lines take, line
// terminators included. It opens f, takes the open file's size, and
// reads by pread from the offset up to that size with a
// core.BlockReader, handing each block of complete lines to FeedBlock
// at once, which copies it before the next read writes over the
// reader's buffer. An unterminated
// tail — a line its writer has not finished — is held back until its
// newline arrives.
// A CR before the newline is dropped from the fed line, as the offline
// parser drops it. A line of core.MaxLineBytes or more is skipped, even
// while unfinished, so the offset moves past what was read of it, and
// reported in the returned error by the drain that meets it; the lines
// after it are fed. A file smaller than its offset was truncated in
// place (copytruncate rotation) and is fed again from its start. It
// returns how many lines were fed.
func (s *dirScanner) drainFile(f core.TreeFile) (int, error) {
	r, err := f.Open()
	if err != nil {
		return 0, err
	}
	defer r.Close()
	size, err := r.Size()
	if err != nil {
		return 0, err
	}
	rel := f.Name
	file := s.files[rel]
	if size < file.off {
		file = fileState{}
		s.files[rel] = file
	}
	if size == file.off {
		return 0, nil
	}
	s.rd.Reset(io.NewSectionReader(r, file.off, size-file.off), file.skipping)
	fed := 0
	for block, ok := s.rd.Next(); ok; block, ok = s.rd.Next() {
		fed += s.feed(rel, block)
	}
	n, skipping, skipAt := s.rd.Consumed()
	s.files[rel] = fileState{off: file.off + n, skipping: skipping}
	if skipAt >= 0 {
		return fed, errors.Join(fmt.Errorf("%s: skipped a line of %d bytes or more at offset %d", rel, core.MaxLineBytes, file.off+skipAt), s.rd.Err())
	}
	return fed, s.rd.Err()
}
