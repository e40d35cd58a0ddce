package core

import "repro/internal/log4j"

// SinkFeeder incrementally pumps an in-memory log4j.Sink into a
// ShardedStream. It remembers how many lines of each file it has already
// fed, so callers alternate freely between advancing the simulation and
// draining — the in-memory analogue of `sdchecker -follow` tailing files
// on disk.
type SinkFeeder struct {
	st      *ShardedStream
	sink    *log4j.Sink
	offsets map[string]int
}

// NewSinkFeeder binds a stream to a sink, starting from the beginning of
// every file.
func NewSinkFeeder(st *ShardedStream, sink *log4j.Sink) *SinkFeeder {
	return &SinkFeeder{st: st, sink: sink, offsets: make(map[string]int)}
}

// Drain feeds every line produced since the previous Drain, waits until
// the stream has absorbed them (Quiesce), and returns how many
// scheduling events the stream gained.
func (f *SinkFeeder) Drain() int {
	before := f.st.EventCount()
	for _, file := range f.sink.Files() {
		lines := f.sink.Lines(file)
		for _, l := range lines[f.offsets[file]:] {
			f.st.Feed(file, l)
		}
		f.offsets[file] = len(lines)
	}
	f.st.Quiesce()
	return f.st.EventCount() - before
}
