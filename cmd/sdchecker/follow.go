package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// dirScanner tails a log directory tree into a sharded stream: each scan
// feeds bytes appended since the previous one (and any newly created
// files), one FeedBlock per block read. It is the shared ingestion
// engine of -follow and -serve.
type dirScanner struct {
	dir string
	// feed hands a file's block of whole lines to the stream
	// (ShardedStream.FeedBlock) and returns how many lines it took.
	feed  func(source, block string) int
	files map[string]fileState
	// pl, when set, times each scan's read phase (walk + drain) as one
	// StageRead batch — per scan, never per line.
	pl *obs.Pipeline
	// rd reads every drain; its buffer serves every file.
	rd core.BlockReader
	// w, when set, is the directory watch whose named files a wake
	// drains between full walks (-serve on Linux); names is the list
	// scanNamed reuses. Without it the full walk is the only path.
	w     *watcher
	names []string
	// overflows and limits count the polls that fell back to the full
	// walk because the kernel dropped events, and the watches given up
	// at the watch limit.
	overflows, limits *metrics.Counter
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

// scan walks the tree once with core.WalkTree, feeding every new line.
// It reports whether any line was fed (absorption is asynchronous —
// Quiesce and compare EventCount to learn whether events were produced).
// One file's error never stops the walk: a file or directory that
// vanished since it was listed is skipped, and every other per-file
// error is joined into the returned error once the walk is done. With a
// watch, every directory the walk lists without a watch is noted for
// watchEntered.
func (s *dirScanner) scan() (changed bool, err error) {
	t := s.pl.Begin()
	fed := 0
	var entered func(string)
	if s.w != nil {
		entered = s.w.enter
	}
	err = core.WalkTreeDirs(s.dir, 1, entered, func(_ int, f core.TreeFile) error {
		n, err := s.drainFile(f)
		fed += n
		return err
	})
	if fed > 0 {
		s.pl.StageBatch(obs.StageRead, -1, t, fed)
	}
	return fed > 0, err
}

// scanNamed is the poll a wake runs: it drains only what the watch named
// since the last poll, through drainFile as scan does. Each directory
// created or moved in is watched first and then walked, every file below
// it drained, so a file written before its directory's watch existed is
// not missed; then each file named is drained. After the kernel dropped
// events it is scan, the full walk. It reports what scan reports.
func (s *dirScanner) scanNamed() (changed bool, err error) {
	names, dirs, overflow := s.w.take(s.names[:0])
	s.names = names
	if overflow {
		s.overflows.Inc()
		return s.scan()
	}
	t := s.pl.Begin()
	fed := 0
	var errs []error
	for _, dir := range dirs {
		n, err := s.walkNew(dir)
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
	if fed > 0 {
		s.pl.StageBatch(obs.StageRead, -1, t, fed)
	}
	return fed > 0, errors.Join(errs...)
}

// walkNew watches the directory called name and every directory below
// it, each before it is listed, and drains every file below it. A
// directory that vanished is skipped.
func (s *dirScanner) walkNew(name string) (fed int, err error) {
	below := func(rel string) string {
		if rel == "" || rel == "." {
			return name
		}
		return name + "/" + rel
	}
	err = core.WalkTreeDirs(filepath.Join(s.dir, filepath.FromSlash(name)), 1, func(rel string) {
		if err := s.w.watch(below(rel)); err != nil {
			s.stopWatch(err)
		}
	}, func(_ int, f core.TreeFile) error {
		f.Name = below(f.Name)
		n, err := s.drainFile(f)
		fed += n
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	return fed, err
}

// watchEntered watches the directories the full walks listed without a
// watch. The server runs it after a poll, outside its lock, so that the
// first poll's answer does not wait for a watch on every directory.
func (s *dirScanner) watchEntered() {
	if s.w == nil {
		return
	}
	if err := s.w.addEntered(); err != nil {
		s.stopWatch(err)
	}
}

// stopWatch gives the watch up after err, which only the watch limit
// returns, and leaves the full walk as the only path.
func (s *dirScanner) stopWatch(err error) {
	s.w.close()
	s.limits.Inc()
	fmt.Printf("sdchecker: watch: %v; only the 1 s walk finds new lines\n", err)
}

// followDir is the live mode: it scans the log tree once, then polls for
// appended bytes and newly created files, feeding every new line into
// the ingestion stream and reprinting the summary whenever new
// scheduling events were absorbed. Scan errors are printed and polling
// goes on. It runs until the process is interrupted.
func followDir(dir string, workers int) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	st := core.NewShardedStream(workers)
	defer st.Close()
	sc := newDirScanner(dir, st)
	fmt.Printf("sdchecker: following %s (interrupt to stop)\n", dir)
	lastEvents := -1
	for {
		if _, err := sc.scan(); err != nil {
			fmt.Printf("sdchecker: scan: %v\n", err)
		}
		st.Quiesce()
		if n := st.EventCount(); n != lastEvents {
			lastEvents = n
			rep := st.Report()
			fmt.Printf("\n--- %s ---\n%s", time.Now().Format("15:04:05"), rep.Format())
		}
		time.Sleep(time.Second)
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
