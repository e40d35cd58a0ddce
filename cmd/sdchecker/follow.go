package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ingestStream is the live-ingestion surface shared by the serial
// core.Stream and the parallel core.ShardedStream, so -follow and
// -serve run unchanged at any -workers setting.
type ingestStream interface {
	Feed(source, rawLine string) bool
	Quiesce()
	Close()
	Report() *core.Report
	Apps() []*core.AppTrace
	App(id ids.AppID) *core.AppTrace
	Complete(id ids.AppID) bool
	EventCount() int
	LastEventMS() int64
	EvictCompleted(keep int) int
	EvictOldest(max int) int
	Forget(id ids.AppID)
	OnComplete(fn func(*core.AppTrace))
	Instrument(reg *metrics.Registry)
	ObservePipeline(p *obs.Pipeline)
	ShardStats() []core.ShardStat
}

// newIngestStream picks the ingestion engine for a worker count: 0
// means GOMAXPROCS, 1 means the serial stream, anything higher the
// sharded stream. Both render byte-identical reports for the same
// lines, so the choice is purely a throughput knob.
func newIngestStream(workers int) ingestStream {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return core.NewStream()
	}
	return core.NewShardedStream(workers)
}

// dirScanner tails a log directory tree into an ingestStream: each scan
// feeds bytes appended since the previous one (and any newly created
// files). It is the shared ingestion engine of -follow and -serve.
type dirScanner struct {
	dir     string
	st      ingestStream
	offsets map[string]int64
	// pl, when set, times each scan's read phase (walk + drain) as one
	// StageRead batch — per scan, never per line.
	pl *obs.Pipeline
	// buf is the line scanner buffer every drainFile reuses; sc.Text
	// copies each line out of it.
	buf []byte
}

func newDirScanner(dir string, st ingestStream) *dirScanner {
	return &dirScanner{dir: dir, st: st, offsets: make(map[string]int64), buf: make([]byte, 64*1024)}
}

// scan walks the tree once, feeding every new line. It reports whether
// any line was fed (with a sharded stream, absorption is asynchronous —
// Quiesce and compare EventCount to learn whether events were produced).
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
	st := newIngestStream(workers)
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

// drainFile feeds any bytes appended since the recorded offset. It
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
	sc := bufio.NewScanner(f)
	sc.Buffer(s.buf[:0], 4*1024*1024)
	fed := 0
	read := off
	for sc.Scan() {
		line := sc.Text()
		read += int64(len(line)) + 1
		if s.st.Feed(rel, line) {
			fed++
		}
	}
	s.offsets[rel] = read
	return fed, sc.Err()
}
