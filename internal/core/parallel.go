package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/log4j"
)

// The parallel offline miner: parsing — reading each file and matching
// its lines against the vocabulary — dominates SDchecker's wall time, and
// files are independent until correlation, so MineDir/MineSink parse the
// files of a log tree on worker goroutines and merge the per-file
// results back in file order. The merged event slice is exactly what one
// serial Parser over the same files in the same order would have
// produced, so the report — including its JSON export — is byte-identical
// to Checker.Analyze for any worker count.

// MineDir mines a log directory tree like Checker.AddDir + Analyze, but
// walks it and parses its files on up to workers goroutines (0 =
// GOMAXPROCS): each worker parses the files WalkTree hands it as it
// finds them. The report is byte-identical to the serial checker's
// regardless of worker count.
func MineDir(dir string, workers int) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// mined holds what one worker parsed; made by the worker on its first
	// file, so an unstarted worker costs a nil pointer.
	type mined struct {
		rd    BlockReader // reads every file the worker parses
		files []minedFile
	}
	byWorker := make([]*mined, workers)
	err := WalkTree(dir, workers, func(w int, f TreeFile) error {
		m := byWorker[w]
		if m == nil {
			m = new(mined)
			byWorker[w] = m
		}
		p := &Parser{rd: &m.rd}
		m.files = append(m.files, minedFile{f.Name, p})
		return p.parseFile(f)
	})
	if err != nil {
		return nil, err
	}
	var files []minedFile
	for _, m := range byWorker {
		if m != nil {
			files = append(files, m.files...)
		}
	}
	slices.SortFunc(files, func(a, b minedFile) int { return compareWalk(a.name, b.name) })
	parsers := make([]*Parser, len(files))
	for i, f := range files {
		parsers[i] = f.p
	}
	return mineReport(parsers, workers), nil
}

// minedFile is one file's parse, under the file's name.
type minedFile struct {
	name string
	p    *Parser
}

// MineSink mines an in-memory log sink like Checker.AddSink + Analyze,
// parsing files on up to workers goroutines (0 = GOMAXPROCS).
func MineSink(s *log4j.Sink, workers int) (*Report, error) {
	files := s.Files()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(files)), 1)
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
				parsers[i] = &Parser{rd: &rd}
				errs[i] = parsers[i].ParseReader(files[i], s.Reader(files[i]))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return mineReport(parsers, workers), nil
}

// mineReport merges the per-file parsers in file order (events,
// line/file counts, and warnings — the latter replayed occurrence by
// occurrence so dedup counts match a serial parse), then correlates,
// decomposes on up to workers goroutines, and builds the report.
func mineReport(parsers []*Parser, workers int) *Report {
	total := 0
	for _, p := range parsers {
		total += len(p.events)
	}
	merged := &Parser{events: make([]Event, 0, total)}
	for _, p := range parsers {
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
	return r
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
