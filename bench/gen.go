package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/log4j"
)

// simulate runs the paper's default TPC-H-over-trace scenario for the
// given query count and returns the log sink. The seed drives the
// submission process, exactly as `simcluster -seed` does.
func simulate(queries int, seed int64) *log4j.Sink {
	tr := experiments.DefaultTraceRun(queries)
	tr.Seed = uint64(seed)
	s, _ := tr.Run()
	return s.Sink
}

// chatterPerLine is how many non-vocabulary lines follow every daemon
// line in the mine-chatter tree: production RM/NM logs are mostly
// IPC, audit, heartbeat and monitor noise the simulator does not emit.
const chatterPerLine = 19

// chatter holds the four scanNoise shapes of
// internal/experiments/minebench.go without their timestamps; each copy
// is stamped with the timestamp of the daemon line it follows.
var chatter = []string{
	" INFO org.apache.hadoop.ipc.Server: IPC Server handler 12 on 8030, call org.apache.hadoop.yarn.server.api.ResourceTrackerPB.nodeHeartbeat from 10.1.2.7:52114 Call#8812 Retry#0",
	" INFO resourcemanager.RMAuditLogger: USER=hive\tIP=10.1.2.9\tOPERATION=AM Allocated Container\tTARGET=SchedulerApp\tRESULT=SUCCESS",
	" INFO monitor.ContainersMonitorImpl: Memory usage of ProcessTree 21380: 412.3 MB of 2 GB physical memory used; 2.7 GB of 4.2 GB virtual memory used",
	" INFO util.AbstractLivelinessMonitor: Expired:Timer for monitoring node node07:8041 is running",
}

// stampLen is the length of a log4j timestamp ("2017-07-02 12:53:22,505").
const stampLen = 23

// isDaemonLog reports whether a sink file is an RM or NM daemon log.
func isDaemonLog(file string) bool { return strings.HasPrefix(file, "hadoop/") }

// writeTree materializes a sink under dir, in sorted file order, with
// `chatterPerLine` chatter lines after every daemon line when withChatter
// is set. It returns the number of lines written.
//
// Files already under dir are overwritten in place and files the sink
// does not hold are removed, so the tree ends up as if written into an
// empty directory. The benchmark rewrites its trees this way instead of
// deleting them: the simulator names files the same for every seed of a
// size, so a rewrite creates and deletes no inodes, and on ext4 mass
// deletion slows the file creation that follows it several times over
// for tens of seconds, which made set-up and tail times drift from run to
// run.
func writeTree(sink *log4j.Sink, dir string, withChatter bool) (int, error) {
	n, err := writeFiles(sink, dir, withChatter)
	if err != nil {
		return 0, err
	}
	keep := map[string]bool{}
	for _, f := range sink.Files() {
		keep[filepath.Join(dir, filepath.FromSlash(f))] = true
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || keep[path] {
			return err
		}
		return os.Remove(path)
	})
	return n, err
}

func writeFiles(sink *log4j.Sink, dir string, withChatter bool) (int, error) {
	if !withChatter {
		return sink.TotalLines(), sink.WriteDir(dir)
	}
	files := sink.Files()
	sort.Strings(files)
	lines, k := 0, 0
	for _, f := range files {
		path := filepath.Join(dir, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return 0, err
		}
		w, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		bw := bufio.NewWriter(w)
		for _, line := range sink.Lines(f) {
			bw.WriteString(line)
			bw.WriteByte('\n')
			lines++
			if !isDaemonLog(f) || len(line) < stampLen {
				continue
			}
			for i := 0; i < chatterPerLine; i++ {
				bw.WriteString(line[:stampLen])
				bw.WriteString(chatter[k%len(chatter)])
				bw.WriteByte('\n')
				k++
				lines++
			}
		}
		if err := bw.Flush(); err != nil {
			w.Close()
			return 0, fmt.Errorf("writing %s: %w", path, err)
		}
		if err := w.Close(); err != nil {
			return 0, fmt.Errorf("closing %s: %w", path, err)
		}
	}
	return lines, nil
}

// countFiles returns how many regular files lie under dir.
func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	return n, err
}

// referenceJSON is the serial in-process report of a tree on disk, as
// `sdchecker -dir T -json` prints it (with the trailing newline).
func referenceJSON(dir string) (string, *core.Report, error) {
	c := core.New()
	if err := c.AddDir(dir); err != nil {
		return "", nil, err
	}
	rep := c.Analyze()
	out, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return out + "\n", rep, nil
}

// tailLine is one line of the serve-tail load, in the deterministic order
// the generator appends lines.
type tailLine struct {
	file string // relative path, slash-separated
	text string
}

// mergeByStamp merges every file of a sink into one order by log4j
// timestamp; ties go by the file's first-write position in the sink, then
// by line position within the file.
func mergeByStamp(sink *log4j.Sink) ([]tailLine, error) {
	type keyed struct {
		ms         int64
		file, line int
	}
	files := sink.Files()
	var keys []keyed
	for fi, f := range files {
		for li, l := range sink.Lines(f) {
			if len(l) < stampLen {
				return nil, fmt.Errorf("%s:%d: line too short for a timestamp", f, li+1)
			}
			ms, err := log4j.ParseStamp(l[:stampLen])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", f, li+1, err)
			}
			keys = append(keys, keyed{ms, fi, li})
		}
	}
	// keys are built in (file, line) order, so a stable sort breaks ties.
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].ms < keys[j].ms })
	out := make([]tailLine, len(keys))
	for i, k := range keys {
		f := files[k.file]
		out[i] = tailLine{file: f, text: sink.Lines(f)[k.line]}
	}
	return out, nil
}

// completingLines feeds the merged order through a serial stream and
// returns, in ascending order, the index of the line after which each
// application's decomposition first became complete.
func completingLines(lines []tailLine) []int {
	st := core.NewStream()
	var done []int
	cur := 0
	st.OnComplete(func(*core.AppTrace) { done = append(done, cur) })
	for i, l := range lines {
		cur = i
		st.Feed(l.file, l.text)
	}
	return done
}
