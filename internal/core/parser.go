package core

import (
	"fmt"
	"io"
	"regexp"
	"strings"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// Parser mines scheduling-related events from log files. Feed it any
// number of files (daemon logs and per-container stderr files) in any
// order, then hand Events() to the Correlator. An event keeps only what
// it was mined for and never aliases the line it came from: the two
// rules that keep strings of a line, APP_SUMMARY and ASSIGNED, clone
// them. So a fed line is garbage once it is mined, and a read block,
// a view of the BlockReader's buffer, may be read over by the next read.
type Parser struct {
	events []Event
	warns  warnSet
	files  int
	lines  int
	met    *parserMetrics

	// rd reads the files ParseReader mines, made on first use unless a
	// MineDir worker shares its own; its buffer serves every later file.
	rd *BlockReader
}

// maxDistinctWarnings bounds the warning set: corrupted inputs can
// produce one unique warning per garbage line, which must not exhaust
// memory in -follow/-serve modes. Beyond the cap only a suppression
// counter grows.
const maxDistinctWarnings = 256

// warnSet deduplicates warnings, keeping a repeat count per message and
// a count of messages dropped once the distinct cap is hit.
type warnSet struct {
	order      []string
	count      map[string]int
	suppressed int
}

func (w *warnSet) add(msg string) {
	if w.count == nil {
		w.count = make(map[string]int)
	}
	if n, ok := w.count[msg]; ok {
		w.count[msg] = n + 1
		return
	}
	if len(w.order) >= maxDistinctWarnings {
		w.suppressed++
		return
	}
	w.order = append(w.order, msg)
	w.count[msg] = 1
}

// absorb replays another set's occurrences into w in their original
// order, so merging per-file warn sets file by file reproduces what one
// serial parser over the same files would have kept. The only divergence
// is a single file with more than maxDistinctWarnings distinct messages:
// its own overflow was already collapsed into a suppression count, which
// carries over as-is (display-only; reports never serialize warnings).
func (w *warnSet) absorb(o *warnSet) {
	for _, msg := range o.order {
		for i := o.count[msg]; i > 0; i-- {
			w.add(msg)
		}
	}
	w.suppressed += o.suppressed
}

// render flattens the set back to display strings, annotating repeats
// and the suppressed overflow.
func (w *warnSet) render() []string {
	if len(w.order) == 0 {
		return nil
	}
	out := make([]string, 0, len(w.order)+1)
	for _, msg := range w.order {
		if n := w.count[msg]; n > 1 {
			out = append(out, fmt.Sprintf("%s (x%d)", msg, n))
		} else {
			out = append(out, msg)
		}
	}
	if w.suppressed > 0 {
		out = append(out, fmt.Sprintf("... %d further distinct warnings suppressed", w.suppressed))
	}
	return out
}

// regexNames enumerates the extraction regexes for per-regex hit
// counters; the names are the `regex` label values on
// core_parser_hits_total.
var regexNames = []string{
	"app_summary", "app_state", "rm_container", "nm_container",
	"launch_invoked", "opp_queued", "register", "start_allo", "end_allo",
	"first_task", "first_log", "assigned", "opp_assigned",
}

// parserMetrics are the parser's observability hooks (shared by every
// parser instrumented with the same registry).
type parserMetrics struct {
	lines *metrics.Counter            // log4j-parseable lines consumed
	hits  map[string]*metrics.Counter // per-regex match counts
}

func newParserMetrics(reg *metrics.Registry) *parserMetrics {
	if reg == nil {
		return nil
	}
	pm := &parserMetrics{
		lines: reg.Counter("core_parser_lines_total"),
		hits:  make(map[string]*metrics.Counter, len(regexNames)),
	}
	for _, n := range regexNames {
		pm.hits[n] = reg.Counter("core_parser_hits_total", "regex", n)
	}
	return pm
}

// Instrument registers the parser's line and per-regex hit counters in
// reg. A nil registry is a no-op.
func (p *Parser) Instrument(reg *metrics.Registry) {
	p.met = newParserMetrics(reg)
}

// hit counts one match of the named extraction regex.
func (p *Parser) hit(re string) {
	if p.met != nil {
		p.met.hits[re].Inc()
	}
}

// countLine counts one successfully parsed log4j line.
func (p *Parser) countLine() {
	if p.met != nil {
		p.met.lines.Inc()
	}
}

// The extraction regexes (§III-A: "parse the logs to extract scheduling
// related messages using regular expression").
var (
	reAppState = regexp.MustCompile(`(application_\d+_\d+) State change from (\w+) to (\w+) on event = (\w+)`)
	reRMCont   = regexp.MustCompile(`(container_\d+_\d+_\d+_\d+) Container Transitioned from (\w+) to (\w+)`)
	reNMCont   = regexp.MustCompile(`Container (container_\d+_\d+_\d+_\d+) transitioned from (\w+) to (\w+)`)
	reInvoke   = regexp.MustCompile(`Invoking launch script for container (container_\d+_\d+_\d+_\d+)`)
	reOppQueue = regexp.MustCompile(`Opportunistic container (container_\d+_\d+_\d+_\d+) queued`)

	reRegister  = regexp.MustCompile(`Registered with (the )?ResourceManager`)
	reStartAllo = regexp.MustCompile(`SDCHECKER START_ALLO`)
	reEndAllo   = regexp.MustCompile(`SDCHECKER END_ALLO`)
	reFirstTask = regexp.MustCompile(`Got assigned task (\d+)`)

	reContainerInPath = regexp.MustCompile(`container_\d+_\d+_\d+_\d+`)
	// reNodeInPath recovers the NodeManager host from its daemon log file
	// name (yarn.NodeManager writes hadoop/yarn-nodemanager-<node>.log).
	reNodeInPath = regexp.MustCompile(`yarn-nodemanager-(.+)\.log$`)

	reAppSummary = regexp.MustCompile(`Application (application_\d+_\d+) submitted: name=(\S+) type=(\S+) queue=(\S+)`)
	// reAssigned mines the scheduler's container-to-host binding, the only
	// RM-side source of per-node attribution.
	reAssigned = regexp.MustCompile(`Assigned container (container_\d+_\d+_\d+_\d+) .*on host (\S+)`)
	// reOppAssigned mines the same binding for opportunistic containers,
	// which the distributed allocator announces with its own phrasing.
	reOppAssigned = regexp.MustCompile(`Allocated opportunistic container (container_\d+_\d+_\d+_\d+) on host (\S+)`)
)

// NewParser returns an empty parser.
func NewParser() *Parser {
	return &Parser{}
}

// Warnings returns non-fatal anomalies found while parsing, deduplicated
// (repeats annotated "(xN)") and capped so arbitrary garbage input cannot
// grow them without bound.
func (p *Parser) Warnings() []string { return p.warns.render() }

// Stats returns (files, lines) consumed so far.
func (p *Parser) Stats() (files, lines int) { return p.files, p.lines }

// Events returns all mined events (unsorted; the Correlator orders them).
func (p *Parser) Events() []Event { return p.events }

func (p *Parser) warnf(format string, args ...any) {
	p.warns.add(fmt.Sprintf(format, args...))
}

// ParseReader consumes one log file. name should be the file's path: when
// it contains a container ID (userlogs/<app>/<container>/stderr), the file
// is treated as a container log and its first parseable line becomes the
// FIRST_LOG event of Table I.
//
// Either kind is read with the parser's BlockReader, one block of whole
// lines at a time, and each block is walked in place, a view of the
// reader's buffer, with the segment feeders the live stream uses; the
// unterminated tail is mined last. A line of
// MaxLineBytes or more is skipped with a warning. After a read error a
// daemon log keeps what it mined from the bytes read and a container
// log yields no events.
func (p *Parser) ParseReader(name string, r io.Reader) error {
	p.files++
	cid, isContainer, err := fastFindContainerID(name)
	if err != nil {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	if p.rd == nil {
		p.rd = new(BlockReader)
	}
	p.rd.Reset(r, false)
	cs := p.beginContainerScan()
	for ok := true; ok; {
		var block string
		if block, ok = p.rd.Next(); !ok {
			block = p.rd.tail() // mined at the end, or at a read error
		}
		if isContainer {
			cs.feed(p, cid, block)
		} else {
			p.feedDaemonSegments(name, block)
		}
	}
	p.warnSkipped(name, p.rd.skipped)
	err = p.rd.Err()
	if !isContainer {
		return err
	}
	if err != nil {
		p.events = p.events[:cs.bodyStart] // a failed read yields no events
		return err
	}
	cs.finish(p, name, cid)
	return nil
}

// ParseDir walks a log directory tree (as written by Sink.WriteDir or
// collected from a real cluster) with WalkTree on one worker and
// consumes every file.
func (p *Parser) ParseDir(dir string) error {
	return WalkTree(dir, 1, func(_ int, f TreeFile) error { return p.parseFile(f) })
}

// parseFile opens f and consumes it.
func (p *Parser) parseFile(f TreeFile) error {
	r, err := f.Open()
	if err != nil {
		return err
	}
	defer r.Close()
	return p.ParseReader(f.Name, r)
}

// mineDaemonLineFast is mineDaemonLineRegex on the byte-level rule
// tables: same cascade order, same hit counters, same emitted events.
func (p *Parser) mineDaemonLineFast(name string, line log4j.Line) {
	msg := line.Message
	if fastDaemonPrescreenOK && strings.IndexByte(msg, fastDaemonPrescreen) < 0 {
		return // no rule's mandatory literals fit: cannot match
	}
	var m fastMatch
	for ri := range fastDaemonRules {
		r := &fastDaemonRules[ri]
		if !r.match(msg, &m) {
			continue
		}
		p.hit(r.name)
		switch ri {
		case ruleAppSummary:
			app, err := fastParseAppID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			// Capture spans are offsets, so they survive the clone, and the
			// three fields share its backing array instead of pinning the
			// block msg was sliced from.
			msg = strings.Clone(msg)
			sub := &Submission{Name: m.get(msg, 1), AppType: m.get(msg, 2), Queue: m.get(msg, 3)}
			p.emit(Event{Kind: AppSubmitted0, TimeMS: line.TimeMS, Container: ids.ContainerID{App: app}, Submission: sub})
		case ruleAppState:
			app, err := fastParseAppID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch {
			case m.get(msg, 3) == "ATTEMPT_REGISTERED":
				kind = AttemptRegistered
			case m.get(msg, 2) == "SUBMITTED":
				kind = AppSubmitted
			case m.get(msg, 2) == "ACCEPTED":
				kind = AppAccepted
			case m.get(msg, 2) == "FINISHED":
				kind = AppFinished
			default:
				return // other transitions are not scheduling-relevant
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, Container: ids.ContainerID{App: app}})
		case ruleRMContainer:
			cid, err := fastParseContainerID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch m.get(msg, 2) {
			case "ALLOCATED":
				kind = ContAllocated
			case "ACQUIRED":
				kind = ContAcquired
			case "RELEASED":
				kind = ContReleased
			case "KILLED":
				kind = ContLost
			default:
				return
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, Container: cid})
		case ruleNMContainer:
			cid, err := fastParseContainerID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch m.get(msg, 2) {
			case "LOCALIZING":
				kind = ContLocalizing
			case "SCHEDULED":
				kind = ContScheduled
			case "RUNNING":
				kind = ContRunning
			case "EXITED_WITH_SUCCESS":
				kind = ContExited
			default:
				return
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, Container: cid, Node: fastNodeFromPath(name)})
		case ruleLaunchInvoked:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: LaunchInvoked, TimeMS: line.TimeMS, Container: cid, Node: fastNodeFromPath(name)})
			}
		case ruleOppQueued:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: OppQueued, TimeMS: line.TimeMS, Container: cid, Node: fastNodeFromPath(name)})
			}
		case ruleAssigned, ruleOppAssigned:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, Container: cid, Node: strings.Clone(m.get(msg, 1))})
			}
		}
		return
	}
}

// containerScan carries one container-log scan's state. It is shared by
// ParseReader's block-by-block walk, the stream feeds, and the regexp
// reference. Body events append directly to p.events past bodyStart;
// finish inserts the FIRST_LOG event in front of them.
type containerScan struct {
	bodyStart int
	instance  InstanceCode
	// The first parseable line's time, for FIRST_LOG.
	firstTime   int64
	hasFirst    bool
	sawFirstTsk bool
}

func (p *Parser) beginContainerScan() containerScan {
	return containerScan{bodyStart: len(p.events)}
}

// feed walks raw's segments as container-log lines.
func (cs *containerScan) feed(p *Parser, cid ids.ContainerID, raw string) {
	it := segmentIter{raw: raw}
	for seg, ok := it.next(); ok; seg, ok = it.next() {
		p.lines++
		if line, lok := log4j.ParseLineFast(seg); lok {
			cs.line(p, cid, line)
		}
	}
}

// line mines one parsed container-log line.
func (cs *containerScan) line(p *Parser, cid ids.ContainerID, line log4j.Line) {
	cs.observe(p, line)
	var kind Kind
	switch {
	case fastBodyRules[ruleRegister].contains(line.Message) && strings.Contains(line.Class, "deploy.yarn.ApplicationMaster"):
		p.hit("register")
		kind = DriverRegister
	case fastBodyRules[ruleStartAllo].contains(line.Message):
		p.hit("start_allo")
		kind = StartAllo
	case fastBodyRules[ruleEndAllo].contains(line.Message):
		p.hit("end_allo")
		kind = EndAllo
	case !cs.sawFirstTsk && fastBodyRules[ruleFirstTask].contains(line.Message):
		cs.sawFirstTsk = true
		p.hit("first_task")
		kind = FirstTask
	default:
		return
	}
	p.emit(Event{Kind: kind, TimeMS: line.TimeMS, Container: cid})
}

// observe counts one parsed container-log line, remembers the first
// one's time for FIRST_LOG, and classifies the container's instance from logging
// classes and message shape.
func (cs *containerScan) observe(p *Parser, line log4j.Line) {
	p.countLine()
	if !cs.hasFirst {
		cs.firstTime, cs.hasFirst = line.TimeMS, true
	}
	cs.instance = foldInstance(cs.instance, lineInstance(line))
}

// lineInstance classifies one container-log line's instance from its
// logging class and message shape; most lines say nothing (codeUnknown).
func lineInstance(line log4j.Line) InstanceCode {
	switch {
	case strings.Contains(line.Class, "CoarseGrainedExecutorBackend"):
		return codeSparkExecutor
	case strings.Contains(line.Class, "deploy.yarn.ApplicationMaster"):
		return codeSparkDriver
	case strings.Contains(line.Class, "MRAppMaster"):
		return codeMRMaster
	case strings.Contains(line.Class, "YarnChild"):
		if strings.Contains(line.Message, "Starting MAP") {
			return codeMRMap
		}
		if strings.Contains(line.Message, "Starting REDUCE") {
			return codeMRReduce
		}
	}
	return codeUnknown
}

// foldInstance folds one line's classification into a container's
// instance so far, in line order: executor and MapReduce kinds
// overwrite, the Spark driver only replaces unknown, and an
// unclassified line changes nothing. The offline scan and the live
// stream (Stream.takeFirstLog) both classify a container this way.
func foldInstance(cur, line InstanceCode) InstanceCode {
	if line == codeUnknown || (line == codeSparkDriver && cur != codeUnknown) {
		return cur
	}
	return line
}

// finish emits the FIRST_LOG event (Table I rows 9/13) in front of the
// body events the scan appended, or the no-parseable-lines warning.
func (cs *containerScan) finish(p *Parser, name string, cid ids.ContainerID) {
	if !cs.hasFirst {
		p.warnf("%s: container log has no parseable lines", name)
		return
	}
	p.hit("first_log")
	ev := Event{Kind: firstLogKind(cs.instance), TimeMS: cs.firstTime, Container: cid, Instance: cs.instance}
	p.events = append(p.events, Event{})
	copy(p.events[cs.bodyStart+1:], p.events[cs.bodyStart:len(p.events)-1])
	p.events[cs.bodyStart] = ev
}

// firstLogKind is the FIRST_LOG kind of a container classified inst.
func firstLogKind(inst InstanceCode) Kind {
	switch inst {
	case codeSparkDriver:
		return DriverFirstLog
	case codeSparkExecutor:
		return ExecutorFirstLog
	}
	return TaskFirstLog
}

func (p *Parser) emit(e Event) {
	p.events = append(p.events, e)
}
