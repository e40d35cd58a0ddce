package core

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/log4j"
)

// The parallel offline miner: parsing — reading each file and matching
// its lines against the vocabulary — dominates SDchecker's wall time, and
// files are independent until correlation, so MineDir/MineSink fan the
// files of a log tree out to worker goroutines and merge the per-file
// results back in file order. The merged event slice is exactly what one
// serial Parser over the same files in the same order would have
// produced, so the report — including its JSON export — is byte-identical
// to Checker.Analyze for any worker count.

// mineFile is one log file to parse: its logical (slash-separated) name
// and a way to open its content, closed after parsing if it is an
// io.Closer.
type mineFile struct {
	name string
	open func() (io.Reader, error)
}

// MineDir mines a log directory tree like Checker.AddDir + Analyze, but
// parses files on up to workers goroutines (0 = GOMAXPROCS). The report
// is byte-identical to the serial checker's regardless of worker count.
func MineDir(dir string, workers int) (*Report, error) {
	var files []mineFile
	err := WalkTree(dir, func(name, path string) error {
		files = append(files, mineFile{
			name: name,
			open: func() (io.Reader, error) { return os.Open(path) },
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mineFiles(files, workers)
}

// MineSink mines an in-memory log sink like Checker.AddSink + Analyze,
// parsing files on up to workers goroutines (0 = GOMAXPROCS).
func MineSink(s *log4j.Sink, workers int) (*Report, error) {
	names := s.Files()
	files := make([]mineFile, 0, len(names))
	for _, f := range names {
		f := f
		files = append(files, mineFile{
			name: f,
			open: func() (io.Reader, error) { return s.Reader(f), nil },
		})
	}
	return mineFiles(files, workers)
}

// mineFiles parses every file on a worker pool, merges the per-file
// parsers in file order (events, line/file counts, and warnings — the
// latter replayed occurrence by occurrence so dedup counts match a
// serial parse), then correlates, decomposes in parallel, and builds the
// report.
func mineFiles(files []mineFile, workers int) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(files) {
		workers = len(files)
	}
	if workers < 1 {
		workers = 1
	}

	parsers := make([]*Parser, len(files))
	errs := make([]error, len(files))
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rd BlockReader // reads every file this worker mines
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(files) {
					return
				}
				r, err := files[i].open()
				if errors.Is(err, fs.ErrNotExist) {
					continue // vanished since the walk, as WalkTree skips it
				}
				if err != nil {
					errs[i] = err
					continue
				}
				p := &Parser{rd: &rd}
				err = p.ParseReader(files[i].name, r)
				if c, ok := r.(io.Closer); ok {
					c.Close()
				}
				parsers[i], errs[i] = p, err
			}
		}()
	}
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		// Every file's error in file order, as WalkTree joins them.
		return nil, err
	}
	total := 0
	for _, p := range parsers {
		if p != nil {
			total += len(p.events)
		}
	}
	merged := &Parser{events: make([]Event, 0, total)}
	for _, p := range parsers {
		if p == nil {
			continue
		}
		merged.events = append(merged.events, p.events...)
		merged.files += p.files
		merged.lines += p.lines
		merged.warns.absorb(&p.warns)
	}

	apps := Correlate(merged.Events())
	decomposeAll(apps, workers)
	r := buildReport(apps, merged.Events())
	r.Warnings = merged.Warnings()
	r.FilesParsed, r.LinesParsed = merged.Stats()
	return r, nil
}

// decomposeAll runs the (pure, per-app) decomposition over a worker
// pool. Each worker writes only its own apps' Decomp fields, so the
// result is identical to a serial loop.
func decomposeAll(apps []*AppTrace, workers int) {
	if workers > len(apps) {
		workers = len(apps)
	}
	if workers <= 1 {
		for _, a := range apps {
			Decompose(a)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(apps) {
					return
				}
				Decompose(apps[i])
			}
		}()
	}
	wg.Wait()
}
