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
		rd     BlockReader // reads every file the worker parses
		files  []minedFile
		events []Event // the unused rest of the worker's event chunk
	}
	byWorker := make([]*mined, workers)
	err := WalkTree(dir, workers, func(w int, f TreeFile) error {
		m := byWorker[w]
		if m == nil {
			m = new(mined)
			byWorker[w] = m
		}
		if cap(m.events) < minChunkRest {
			m.events = make([]Event, 0, eventChunk)
		}
		// The file's events go to the chunk's rest, and it keeps what
		// they took; a file that overflows the rest appends past it, to
		// an array of its own, and leaves the rest to the next file.
		p := &Parser{rd: &m.rd, events: m.events}
		m.files = append(m.files, minedFile{f.Name, p})
		err := p.parseFile(f)
		if n := len(p.events); cap(p.events) == cap(m.events) {
			m.events, p.events = p.events[n:n], p.events[:n:n]
		}
		p.rd = nil // the worker's buffer is garbage once the walk ends
		return err
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

// A MineDir worker's per-file parses take their events from chunks of
// eventChunk events rather than each growing a slice from nothing: a
// container's stderr file yields a handful. A chunk with less than
// minChunkRest left is given up for a new one.
const (
	eventChunk   = 4096
	minChunkRest = 64
)

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
	rds := make([]BlockReader, workers) // rds[w] reads every file worker w mines
	parsers := make([]*Parser, len(files))
	errs := make([]error, len(files))
	fanOut(len(files), workers, func(w, i int) {
		p := &Parser{rd: &rds[w]}
		errs[i] = p.ParseReader(files[i], s.Reader(files[i]))
		p.rd, parsers[i] = nil, p
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return mineReport(parsers, workers), nil
}

// mineReport correlates the per-file parsers' events in file order
// without merging them first, taking them from the parsers so that
// they are garbage once correlateParts has copied them; merges the
// parsers' line/file counts and warnings (the latter replayed
// occurrence by occurrence so dedup counts match a serial parse);
// decomposes on up to workers goroutines; and builds the report.
func mineReport(parsers []*Parser, workers int) *Report {
	var merged Parser
	parts := make([][]Event, len(parsers))
	for i, p := range parsers {
		parts[i], p.events = p.events, nil
		merged.files += p.files
		merged.lines += p.lines
		merged.warns.absorb(&p.warns)
	}
	apps, events := correlateParts(parts)
	decomposeAll(apps, workers)
	r := buildReport(apps, events)
	r.Warnings = merged.Warnings()
	r.FilesParsed, r.LinesParsed = merged.Stats()
	return r
}

// decomposeAll runs the (pure, per-app) decomposition over a worker
// pool. Each worker writes only its own apps' Decomp fields, so the
// result is identical to a serial loop.
func decomposeAll(apps []*AppTrace, workers int) {
	fanOut(len(apps), workers, func(_, i int) { Decompose(apps[i]) })
}

// fanOut calls f(w, i) once for every i in [0, n), on up to workers
// goroutines that take the next index as they finish one; w in
// [0, workers) names the goroutine that runs the call. At one worker it
// runs on the caller's goroutine.
func fanOut(n, workers int, f func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}
