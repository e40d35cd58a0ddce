package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// dirScanner tails a log directory tree into a sharded stream: each scan
// feeds bytes appended since the previous one (and any newly created
// files). It is the shared ingestion engine of -follow and -serve.
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
	// buf is the line scanner buffer every drainFile reuses; sc.Text
	// copies each line out of it.
	buf []byte
}

func newDirScanner(dir string, st *core.ShardedStream) *dirScanner {
	return &dirScanner{dir: dir, st: st, offsets: make(map[string]int64), skipping: make(map[string]bool), buf: make([]byte, 64*1024)}
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
// terminators included. An unterminated tail — a line its writer has not
// finished — is held back until its newline arrives. A CR before the
// newline is dropped from the fed line, as bufio.ScanLines drops it. A
// line of core.MaxLineBytes or more is skipped, even while unfinished,
// so the offset moves past what was read of it, and reported in the
// returned error by the drain that meets it; the lines after it are
// fed. It returns how many lines were fed.
func (s *dirScanner) drainFile(path, rel string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	off := s.offsets[rel]
	if info.Size() <= off {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	read, skip, skippedAt := off, s.skipping[rel], int64(-1)
	sc := bufio.NewScanner(f)
	sc.Buffer(s.buf[:0], core.MaxLineBytes)
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		switch {
		case i < 0 && (skip || len(data) >= core.MaxLineBytes):
			// Inside an over-long line: discard what is buffered of it.
			if !skip {
				skip, skippedAt = true, read
			}
			read += int64(len(data))
			return len(data), nil, nil
		case i < 0:
			return 0, nil, nil // no newline yet: ask for more, or stop at EOF
		}
		read += int64(i) + 1
		if skip {
			skip = false
			return i + 1, nil, nil // the over-long line's end
		}
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	})
	fed := 0
	for sc.Scan() {
		if s.st.Feed(rel, sc.Text()) {
			fed++
		}
	}
	s.offsets[rel] = read
	if skip {
		s.skipping[rel] = true
	} else {
		delete(s.skipping, rel)
	}
	if skippedAt >= 0 {
		return fed, errors.Join(fmt.Errorf("%s: skipped a line of %d bytes or more at offset %d", rel, core.MaxLineBytes, skippedAt), sc.Err())
	}
	return fed, sc.Err()
}
