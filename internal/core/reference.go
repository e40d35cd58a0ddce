package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// The regexp reference miner: §III-A's "parse the logs to extract
// scheduling related messages using regular expression", run literally
// on the extraction regexes parser.go declares. The program mines with
// the byte-level matcher (fastpath.go); sdlint proves each of its rules
// language-equal to its regex, and the differential tests run both
// miners over the same input and require identical output. Nothing
// outside tests calls into this file.

// ParseReference mines one log file like a fresh Parser's ParseReader,
// but with the regexp reference implementation, and returns that parser
// (never nil, even alongside an error) holding the file's events,
// warnings and counts. A non-nil reg receives the core_parser_* counters
// an instrumented Parser reports.
//
// It is a function rather than a Parser method so that binaries which
// reflect over Parser's exported methods (html/template does) do not
// link it.
func ParseReference(name string, r io.Reader, reg *metrics.Registry) (*Parser, error) {
	p := NewParser()
	p.Instrument(reg)
	p.files++
	if cidStr := reContainerInPath.FindString(name); cidStr != "" {
		cid, err := ids.ParseContainerID(cidStr)
		if err != nil {
			return p, fmt.Errorf("core: %s: %w", name, err)
		}
		return p, p.parseContainerLogRegex(name, cid, r)
	}
	lines, skipped, err := referenceLines(r)
	for _, l := range lines {
		p.lines++
		line, lerr := log4j.ParseLine(l)
		if lerr != nil {
			continue // stack traces / malformed lines are skipped
		}
		p.countLine()
		p.mineDaemonLineRegex(name, line)
	}
	p.warnSkipped(name, skipped)
	return p, err
}

// referenceLines reads r to its end or its first error and splits what
// was read into lines on its own, apart from segmentIter: split on
// '\n', with no empty line after a final newline, and one trailing '\r'
// dropped. A line of MaxLineBytes or more, counting that '\r', is left
// out and counted in skipped.
func referenceLines(r io.Reader) (lines []string, skipped int, err error) {
	data, err := io.ReadAll(r)
	parts := strings.Split(string(data), "\n")
	if parts[len(parts)-1] == "" {
		parts = parts[:len(parts)-1]
	}
	for _, l := range parts {
		if len(l) >= MaxLineBytes {
			skipped++
			continue
		}
		lines = append(lines, strings.TrimSuffix(l, "\r"))
	}
	return lines, skipped, err
}

// parseContainerLogRegex is parseContainerLog on the body regexes.
func (p *Parser) parseContainerLogRegex(name string, cid ids.ContainerID, r io.Reader) error {
	lines, skipped, err := referenceLines(r)
	cs := p.beginContainerScan()
	for _, l := range lines {
		p.lines++
		line, lerr := log4j.ParseLine(l)
		if lerr != nil {
			continue
		}
		cs.observe(p, line)
		var kind Kind
		switch {
		case reRegister.MatchString(line.Message) && strings.Contains(line.Class, "deploy.yarn.ApplicationMaster"):
			p.hit("register")
			kind = DriverRegister
		case reStartAllo.MatchString(line.Message):
			p.hit("start_allo")
			kind = StartAllo
		case reEndAllo.MatchString(line.Message):
			p.hit("end_allo")
			kind = EndAllo
		case !cs.sawFirstTsk && reFirstTask.MatchString(line.Message):
			cs.sawFirstTsk = true
			p.hit("first_task")
			kind = FirstTask
		default:
			continue
		}
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid})
	}
	p.warnSkipped(name, skipped)
	if err != nil {
		p.events = p.events[:cs.bodyStart] // a failed read yields no events
		return err
	}
	cs.finish(p, name, cid)
	return nil
}

// nodeFromPath derives the NodeManager host from a daemon log path, or
// "" for RM/other logs.
func nodeFromPath(name string) string {
	if m := reNodeInPath.FindStringSubmatch(name); m != nil {
		return m[1]
	}
	return ""
}

// mineDaemonLineRegex is the reference for mineDaemonLineFast: the same
// cascade, hit counters and events, run on the extraction regexes.
func (p *Parser) mineDaemonLineRegex(name string, line log4j.Line) {
	msg := line.Message
	if m := reAppSummary.FindStringSubmatch(msg); m != nil {
		p.hit("app_summary")
		app, err := ids.ParseAppID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		p.emit(Event{Kind: AppSubmitted0, TimeMS: line.TimeMS, App: app, Name: m[2], AppType: m[3], Queue: m[4]})
		return
	}
	if m := reAppState.FindStringSubmatch(msg); m != nil {
		p.hit("app_state")
		app, err := ids.ParseAppID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch {
		case m[4] == "ATTEMPT_REGISTERED":
			kind = AttemptRegistered
		case m[3] == "SUBMITTED":
			kind = AppSubmitted
		case m[3] == "ACCEPTED":
			kind = AppAccepted
		case m[3] == "FINISHED":
			kind = AppFinished
		default:
			return // other transitions are not scheduling-relevant
		}
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: app})
		return
	}
	if m := reRMCont.FindStringSubmatch(msg); m != nil {
		p.hit("rm_container")
		cid, err := ids.ParseContainerID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch m[3] {
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
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid})
		return
	}
	if m := reNMCont.FindStringSubmatch(msg); m != nil {
		p.hit("nm_container")
		cid, err := ids.ParseContainerID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch m[3] {
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
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Node: nodeFromPath(name)})
		return
	}
	if m := reInvoke.FindStringSubmatch(msg); m != nil {
		p.hit("launch_invoked")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: LaunchInvoked, TimeMS: line.TimeMS, App: cid.App, Container: cid, Node: nodeFromPath(name)})
		}
		return
	}
	if m := reOppQueue.FindStringSubmatch(msg); m != nil {
		p.hit("opp_queued")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: OppQueued, TimeMS: line.TimeMS, App: cid.App, Container: cid, Node: nodeFromPath(name)})
		}
		return
	}
	if m := reAssigned.FindStringSubmatch(msg); m != nil {
		p.hit("assigned")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, App: cid.App, Container: cid, Node: m[2]})
		}
		return
	}
	if m := reOppAssigned.FindStringSubmatch(msg); m != nil {
		p.hit("opp_assigned")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, App: cid.App, Container: cid, Node: m[2]})
		}
	}
}
