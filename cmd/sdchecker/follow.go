package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
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
// error is joined into the returned error once the walk is done.
func (s *dirScanner) scan() (changed bool, err error) {
	t := s.pl.Begin()
	fed := 0
	err = core.WalkTree(s.dir, 1, func(_ int, f core.TreeFile) error {
		n, err := s.drainFile(f)
		fed += n
		return err
	})
	if fed > 0 {
		s.pl.StageBatch(obs.StageRead, -1, t, fed)
	}
	return fed > 0, err
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
// terminators included. It opens f, stats the open file, and reads from
// the offset up to that size with a core.BlockReader, handing a copy of
// each block of complete lines to FeedBlock at once. An unterminated
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
	info, err := r.Stat()
	if err != nil {
		return 0, err
	}
	rel := f.Name
	file, size := s.files[rel], info.Size()
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
		// The block is a view of the reader's buffer, which the next read
		// overwrites, and the stream's workers mine it later.
		fed += s.feed(rel, strings.Clone(block))
	}
	n, skipping, skipAt := s.rd.Consumed()
	s.files[rel] = fileState{off: file.off + n, skipping: skipping}
	if skipAt >= 0 {
		return fed, errors.Join(fmt.Errorf("%s: skipped a line of %d bytes or more at offset %d", rel, core.MaxLineBytes, file.off+skipAt), s.rd.Err())
	}
	return fed, s.rd.Err()
}
