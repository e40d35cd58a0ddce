package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// dirScanner tails a log directory tree into a sharded stream: each scan
// feeds bytes appended since the previous one (and any newly created
// files), one FeedBlock per read. It is the shared ingestion engine of
// -follow and -serve.
type dirScanner struct {
	dir     string
	st      *core.ShardedStream
	offsets map[string]int64
	// skipping marks the files whose offset sits inside an over-long
	// line: their next drain first discards through its newline.
	skipping map[string]bool
	// pl, when set, times each scan's read phase (walk + drain) as one
	// StageRead batch — per scan, never per line.
	pl *obs.Pipeline
	// buf is the read buffer every drainFile reuses. It starts at
	// drainChunk and grows, up to core.MaxLineBytes, only to hold a
	// longer unfinished line; FeedBlock gets a copy of what it holds.
	buf []byte
}

// drainChunk is how much drainFile reads at a time until a line longer
// than that makes it read more.
const drainChunk = 1 << 20

func newDirScanner(dir string, st *core.ShardedStream) *dirScanner {
	return &dirScanner{dir: dir, st: st, offsets: make(map[string]int64), skipping: make(map[string]bool), buf: make([]byte, drainChunk)}
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
	err = core.WalkTree(s.dir, func(name, path string) error {
		n, err := s.drainFile(path, name)
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

// drainFile feeds every complete line appended since the recorded
// offset and advances the offset by the bytes those lines take, line
// terminators included. It reads from the offset up to the size it
// stats, in chunks, and hands each chunk's complete lines to FeedBlock
// at once. An unterminated tail — a line its writer has not finished —
// is held back until its newline arrives. A CR before the newline is
// dropped from the fed line, as the offline parser drops it. A line of
// core.MaxLineBytes or more is skipped, even while unfinished, so the
// offset moves past what was read of it, and reported in the returned
// error by the drain that meets it; the lines after it are fed. A file
// smaller than its offset was truncated in place (copytruncate
// rotation) and is fed again from its start. It returns how many lines
// were fed.
func (s *dirScanner) drainFile(path, rel string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	off, size := s.offsets[rel], info.Size()
	if size < off {
		off = 0
		s.offsets[rel] = 0
		delete(s.skipping, rel)
	}
	if size == off {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	skip, skippedAt := s.skipping[rel], int64(-1)
	fed, n := 0, 0 // s.buf[:n] holds the bytes read from off on
	for err == nil && off+int64(n) < size {
		if n == len(s.buf) {
			// An unfinished line fills the buffer: make room for more of
			// it, up to the longest line that is fed.
			grow := min(n, core.MaxLineBytes-n)
			s.buf = slices.Grow(s.buf, grow)[:n+grow]
		}
		want := int(min(int64(len(s.buf)-n), size-off-int64(n)))
		var m int
		m, err = f.ReadAt(s.buf[n:n+want], off+int64(n))
		n += m
		if skip {
			// Inside an over-long line: discard through its newline.
			i := bytes.IndexByte(s.buf[:n], '\n')
			if i < 0 {
				off, n = off+int64(n), 0
				continue
			}
			skip = false
			off, n = off+int64(i)+1, copy(s.buf, s.buf[i+1:n])
		}
		if last := bytes.LastIndexByte(s.buf[:n], '\n'); last >= 0 {
			// The buffer never holds MaxLineBytes bytes before a newline,
			// so FeedBlock skips nothing here.
			k, _ := s.st.FeedBlock(rel, string(s.buf[:last+1]))
			fed += k
			off, n = off+int64(last)+1, copy(s.buf, s.buf[last+1:n])
		}
		if n == core.MaxLineBytes {
			skip = true
			if skippedAt < 0 {
				skippedAt = off
			}
			off, n = off+int64(n), 0
		}
	}
	if err == io.EOF {
		err = nil // the file shrank since the Stat; the next drain sees it
	}
	s.offsets[rel] = off
	if skip {
		s.skipping[rel] = true
	} else {
		delete(s.skipping, rel)
	}
	if skippedAt >= 0 {
		return fed, errors.Join(fmt.Errorf("%s: skipped a line of %d bytes or more at offset %d", rel, core.MaxLineBytes, skippedAt), err)
	}
	return fed, err
}
