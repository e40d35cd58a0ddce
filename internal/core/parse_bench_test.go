package core

import (
	"fmt"
	"strings"
	"testing"
)

// perFileInput is one small log file the per-file allocation budget and
// BenchmarkParseReader mine, with the events it yields.
type perFileInput struct {
	kind, name, data string
	events           int
}

// perFileInputs returns an 823-byte Spark executor stderr file, the
// typical file of a log tree (FIRST_LOG and FIRST_TASK), and a
// ResourceManager log of 200 lines of IPC chatter, which the vocabulary
// never matches and which carry no '_'.
func perFileInputs() []perFileInput {
	var stderr strings.Builder
	for i, ln := range [][2]string{
		{"CoarseGrainedExecutorBackend", "Started daemon with process name: 20001@node02"},
		{"CoarseGrainedExecutorBackend", "Connecting to driver: spark://CoarseGrainedScheduler@node12"},
		{"CoarseGrainedExecutorBackend", "Successfully registered with driver"},
		{"CoarseGrainedExecutorBackend", "Got assigned task 0"},
		{"Executor", "Running task 0.0 in stage 0.0 (TID 0)"},
		{"Executor", "Finished task 0.0 in stage 0.0 (TID 0)"},
		{"CoarseGrainedExecutorBackend", "Driver commanded a shutdown"},
	} {
		stderr.WriteString(line(int64(i)*250, "org.apache.spark.executor."+ln[0], ln[1]) + "\n")
	}
	var chatter strings.Builder
	for i := 0; i < 200; i++ {
		chatter.WriteString(line(int64(i)*250, "org.apache.hadoop.ipc.Server", fmt.Sprintf("IPC Server handler %d on 8030, call heartbeat from 10.0.0.%d", i%64, i%250)) + "\n")
	}
	return []perFileInput{
		{"stderr", "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr", stderr.String(), 2},
		{"chatter", "hadoop/yarn-resourcemanager.log", chatter.String(), 0},
	}
}

// BenchmarkParseReader mines each perFileInputs file with one reused
// parser, as a MineDir worker mines the files of a tree, and reports
// the time per line next to the allocations per file.
func BenchmarkParseReader(b *testing.B) {
	for _, in := range perFileInputs() {
		b.Run(in.kind, func(b *testing.B) {
			p := NewParser()
			r := strings.NewReader(in.data)
			b.ReportAllocs()
			b.SetBytes(int64(len(in.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.events = p.events[:0]
				r.Reset(in.data)
				if err := p.ParseReader(in.name, r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(p.events) != in.events {
				b.Fatalf("mined %d events, want %d", len(p.events), in.events)
			}
			lines := b.N * strings.Count(in.data, "\n")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
		})
	}
}
