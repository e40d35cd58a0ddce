package log4j

import (
	"hash/fnv"

	"repro/internal/rng"
	"repro/internal/sim"
)

// DegradeConfig models lossy, real-world log collection: the paper mines
// logs scp'd off a live 26-node cluster, where rotated files lose lines,
// crashed daemons leave torn partial writes, and per-node clocks drift.
// Damage reproduces those defects deterministically on a simulated run's
// pristine lines, so the miner can be tested against them.
//
// All probabilities are per line. The zero value disables everything.
type DegradeConfig struct {
	// DropProb silently discards the line (log rotation, lost packets in
	// a forwarding pipeline).
	DropProb float64
	// TruncateProb cuts the line at a uniformly random byte (a writer
	// killed mid-line, or a collector copying a file as it is appended).
	TruncateProb float64
	// TearProb splits the line: the first half is written now and the
	// second half is glued (without a newline) onto the front of the next
	// line written to the same file — a torn write interleaving two
	// records.
	TearProb float64
	// SkewMaxMs, when > 0, applies a constant per-file clock offset drawn
	// uniformly from [-SkewMaxMs, +SkewMaxMs] to every timestamp —
	// modeling unsynchronized node clocks.
	SkewMaxMs int64
	// GarbageProb inserts a non-log4j noise line (a stack-trace fragment)
	// before the line, like the stdout noise real daemon logs carry.
	GarbageProb float64
	// Seed drives the deterministic per-file damage streams.
	Seed uint64
}

// garbageLines are the noise fragments GarbageProb injects; they mimic
// the unstamped continuation lines of real Java stack traces.
var garbageLines = []string{
	"\tat org.apache.hadoop.ipc.Client$Connection.handleConnectionFailure(Client.java:891)",
	"java.net.ConnectException: Connection refused",
	"\t... 12 more",
	"Caused by: java.io.IOException: Broken pipe",
	"#### stray stdout from user code ####",
}

// Damage returns the raw lines a lossy collector would leave of one
// file's pristine lines: each line may be dropped, cut, torn across two
// writes, time-shifted or preceded by garbage. The file gets its own RNG
// stream, forked from the seed by the file name's hash, and its own skew
// offset, so damage is a pure function of (config, file, lines): reruns
// are byte-identical, and what happens to one file does not depend on
// any other. A torn tail still pending after the last line is lost. The
// result never shares lines' backing array.
func (c DegradeConfig) Damage(file string, lines []string) []string {
	h := fnv.New64a()
	h.Write([]byte(file))
	r := rng.New(c.Seed ^ 0xdead10cc).Fork(h.Sum64())
	var skewMS int64
	if c.SkewMaxMs > 0 {
		skewMS = r.Int63n(2*c.SkewMaxMs+1) - c.SkewMaxMs
	}
	out := make([]string, 0, len(lines))
	var tail string // second half of a torn line, pending the next write
	for _, line := range lines {
		if c.GarbageProb > 0 && r.Float64() < c.GarbageProb {
			out = append(out, garbageLines[r.Intn(len(garbageLines))])
		}
		if skewMS != 0 {
			line = skewStamp(line, skewMS)
		}
		// A pending torn tail glues onto the front of this write.
		line, tail = tail+line, ""
		switch {
		case c.DropProb > 0 && r.Float64() < c.DropProb:
			// line lost
		case c.TruncateProb > 0 && r.Float64() < c.TruncateProb && len(line) > 1:
			out = append(out, line[:1+r.Intn(len(line)-1)])
		case c.TearProb > 0 && r.Float64() < c.TearProb && len(line) > 1:
			cut := 1 + r.Intn(len(line)-1)
			out = append(out, line[:cut])
			tail = line[cut:]
		default:
			out = append(out, line)
		}
	}
	return out
}

// skewStamp shifts the leading log4j timestamp of line by ms. Lines that
// do not start with a parseable stamp pass through unchanged.
func skewStamp(line string, ms int64) string {
	if len(line) < 23 {
		return line
	}
	t, err := ParseStamp(line[:23])
	if err != nil {
		return line
	}
	return Clock{EpochMS: 0}.Stamp(sim.Time(t+ms)) + line[23:]
}
