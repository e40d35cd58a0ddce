package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
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
	// pl, when set, times each scan's read phase (walk + drain) as one
	// StageRead batch — per scan, never per line.
	pl *obs.Pipeline
	// buf is the line scanner buffer every drainFile reuses; sc.Text
	// copies each line out of it.
	buf []byte
}

func newDirScanner(dir string, st *core.ShardedStream) *dirScanner {
	return &dirScanner{dir: dir, st: st, offsets: make(map[string]int64), buf: make([]byte, 64*1024)}
}

// scan walks the tree once, feeding every new line. It reports whether
// any line was fed (absorption is asynchronous — Quiesce and compare
// EventCount to learn whether events were produced).
func (s *dirScanner) scan() (changed bool, err error) {
	t := s.pl.Begin()
	fed := 0
	werr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(s.dir, path)
		if rerr != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		n, ferr := s.drainFile(path, rel)
		if ferr != nil {
			return ferr
		}
		fed += n
		return nil
	})
	if fed > 0 {
		s.pl.StageBatch(obs.StageRead, -1, t, fed)
	}
	return fed > 0, werr
}

// followDir is the live mode: it scans the log tree once, then polls for
// appended bytes and newly created files, feeding every new line into
// the ingestion stream and reprinting the summary whenever new
// scheduling events were absorbed. It runs until the process is
// interrupted.
func followDir(dir string, workers int) error {
	st := core.NewShardedStream(workers)
	defer st.Close()
	sc := newDirScanner(dir, st)
	fmt.Printf("sdchecker: following %s (interrupt to stop)\n", dir)
	lastEvents := -1
	for {
		if _, err := sc.scan(); err != nil {
			return err
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
// newline is dropped from the fed line, as bufio.ScanLines drops it. It
// returns how many lines were fed.
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
	read := off
	sc := bufio.NewScanner(f)
	sc.Buffer(s.buf[:0], 4*1024*1024)
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return 0, nil, nil // no newline yet: ask for more, or stop at EOF
		}
		read += int64(i) + 1
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	})
	fed := 0
	for sc.Scan() {
		if s.st.Feed(rel, sc.Text()) {
			fed++
		}
	}
	s.offsets[rel] = read
	return fed, sc.Err()
}
