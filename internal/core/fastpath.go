package core

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/log4j"
)

// The mining hot path. The miner's vocabulary (internal/analysis/
// vocab.json) is a fixed set of literal-anchored patterns, so instead of
// running a regexp over every line the fast path dispatches on literal
// anchors ("application_", "Assigned container ", ...) and hand-rolls
// the field extraction with byte loops. Each rule is a small segment
// program; ruleRegex renders the segments back into a regex that is
// byte-for-byte the pattern parser.go declares, and sdlint's logvocab
// analyzer proves the two accept the same language (automaton
// containment both directions), so a rule here cannot silently drift
// from the declared vocabulary. The regexp implementation survives as
// ParseReference (reference.go), the differential tests' reference.
//
// Matching preserves regexp semantics exactly:
//   - unanchored search tries anchor occurrences left to right
//     (leftmost match wins, like FindStringSubmatch);
//   - \w+/\S+/\d+ runs are matched maximally, which is exact because
//     segValidate checks each run is followed by a literal whose first
//     byte is outside the run's class (so backtracking cannot help);
//   - `.*lit` backtracks from the rightmost occurrence of lit before
//     the first newline (greedy dot, no dot-all flag);
//   - `(.+)lit$` requires lit as a suffix and a newline-free, non-empty
//     capture (no multiline flag, so $ is end of text).
//   - `(?:lit|lit2)lit3` is found by scanning for lit3's first byte,
//     which segValidate checks is in neither branch (altBefore).

type segKind uint8

const (
	segLit      segKind = iota // literal text
	segOptLit                  // optional literal group: (lit)?
	segAppID                   // application_\d+_\d+
	segContID                  // container_\d+_\d+_\d+_\d+
	segWord                    // (\w+)
	segNonSpace                // (\S+)
	segDigits                  // (\d+)
	segDotStar                 // .*  (must be followed by segLit)
	segDotPlus                 // (.+) (must be followed by segLit, segEnd)
	segEnd                     // $
	segAltLit                  // (?:lit|lit2)
)

type seg struct {
	kind segKind
	lit  string
	lit2 string // segAltLit only
	bare bool   // capturing kinds: emit the pattern without parens
}

type fastRule struct {
	name     string // metric name, or the regex variable for helpers
	regexVar string
	segs     []seg
}

// span is one captured field: subject[beg:end].
type span struct{ beg, end int }

// fastMatch receives a rule's captures. Four is the widest rule
// (app_summary, app_state); segValidate enforces the bound.
type fastMatch struct {
	n  int
	sp [4]span
}

func (m *fastMatch) get(s string, i int) string { return s[m.sp[i].beg:m.sp[i].end] }

// Indices into fastDaemonRules, in mineDaemonLine's cascade order.
const (
	ruleAppSummary = iota
	ruleAppState
	ruleRMContainer
	ruleNMContainer
	ruleLaunchInvoked
	ruleOppQueued
	ruleAssigned
	ruleOppAssigned
)

var fastDaemonRules = []fastRule{
	{name: "app_summary", regexVar: "reAppSummary", segs: []seg{
		{kind: segLit, lit: "Application "}, {kind: segAppID},
		{kind: segLit, lit: " submitted: name="}, {kind: segNonSpace},
		{kind: segLit, lit: " type="}, {kind: segNonSpace},
		{kind: segLit, lit: " queue="}, {kind: segNonSpace},
	}},
	{name: "app_state", regexVar: "reAppState", segs: []seg{
		{kind: segAppID},
		{kind: segLit, lit: " State change from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
		{kind: segLit, lit: " on event = "}, {kind: segWord},
	}},
	{name: "rm_container", regexVar: "reRMCont", segs: []seg{
		{kind: segContID},
		{kind: segLit, lit: " Container Transitioned from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
	}},
	{name: "nm_container", regexVar: "reNMCont", segs: []seg{
		{kind: segLit, lit: "Container "}, {kind: segContID},
		{kind: segLit, lit: " transitioned from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
	}},
	{name: "launch_invoked", regexVar: "reInvoke", segs: []seg{
		{kind: segLit, lit: "Invoking launch script for container "}, {kind: segContID},
	}},
	{name: "opp_queued", regexVar: "reOppQueue", segs: []seg{
		{kind: segLit, lit: "Opportunistic container "}, {kind: segContID},
		{kind: segLit, lit: " queued"},
	}},
	{name: "assigned", regexVar: "reAssigned", segs: []seg{
		{kind: segLit, lit: "Assigned container "}, {kind: segContID},
		{kind: segLit, lit: " "}, {kind: segDotStar},
		{kind: segLit, lit: "on host "}, {kind: segNonSpace},
	}},
	{name: "opp_assigned", regexVar: "reOppAssigned", segs: []seg{
		{kind: segLit, lit: "Allocated opportunistic container "}, {kind: segContID},
		{kind: segLit, lit: " on host "}, {kind: segNonSpace},
	}},
}

// Indices into fastBodyRules (container-log message bodies).
const (
	ruleRegister = iota
	ruleStartAllo
	ruleEndAllo
	ruleFirstTask
)

var fastBodyRules = []fastRule{
	{name: "register", regexVar: "reRegister", segs: []seg{
		{kind: segLit, lit: "Registered with "}, {kind: segOptLit, lit: "the "},
		{kind: segLit, lit: "ResourceManager"},
	}},
	{name: "start_allo", regexVar: "reStartAllo", segs: []seg{
		{kind: segLit, lit: "SDCHECKER START_ALLO"},
	}},
	{name: "end_allo", regexVar: "reEndAllo", segs: []seg{
		{kind: segLit, lit: "SDCHECKER END_ALLO"},
	}},
	{name: "first_task", regexVar: "reFirstTask", segs: []seg{
		{kind: segLit, lit: "Got assigned task "}, {kind: segDigits},
	}},
}

// Indices into fastHelperRules (routing/path helpers, named by their
// regex variable because they carry no metric).
const (
	ruleContainerInPath = iota
	ruleNodeInPath
	ruleAppInLine
)

// fastDaemonPrescreen is a one-byte rejection filter for the daemon
// cascade: a byte that every rule's mandatory literals contain, so a
// message lacking it cannot match any rule and the whole cascade (eight
// anchor searches) is skipped after a single IndexByte. With the
// current vocabulary the byte is '_' — every daemon rule extracts an
// application or container ID — which realistic non-vocabulary chatter
// (IPC handlers, audit records, heartbeats) almost never contains. The
// byte is computed from the segment tables at init, not assumed, so a
// table edit that invalidates it disables the filter rather than
// breaking matching.
var fastDaemonPrescreen, fastDaemonPrescreenOK = prescreenByte(fastDaemonRules)

// prescreenByte intersects, across rules, the sets of bytes each rule's
// match must contain (bytes of unconditional literals: segLit, the ID
// prefixes, and bytes common to both branches of segAltLit), and picks
// one shared byte. Space is excluded — virtually every message has one,
// so it rejects nothing. ok=false means no usable shared byte exists.
func prescreenByte(rules []fastRule) (b byte, ok bool) {
	var common [256]bool
	for i := range common {
		common[i] = true
	}
	for ri := range rules {
		var req [256]bool
		mark := func(lit string) {
			for i := 0; i < len(lit); i++ {
				req[lit[i]] = true
			}
		}
		for _, sg := range rules[ri].segs {
			switch sg.kind {
			case segLit:
				mark(sg.lit)
			case segAppID:
				mark("application_")
			case segContID:
				mark("container_")
			case segAltLit:
				for i := 0; i < len(sg.lit); i++ {
					if strings.IndexByte(sg.lit2, sg.lit[i]) >= 0 {
						req[sg.lit[i]] = true
					}
				}
			}
		}
		for i := range common {
			common[i] = common[i] && req[i]
		}
	}
	if common['_'] {
		return '_', true
	}
	for i := range common {
		if common[i] && byte(i) != ' ' {
			return byte(i), true
		}
	}
	return 0, false
}

var fastHelperRules = []fastRule{
	{name: "reContainerInPath", regexVar: "reContainerInPath", segs: []seg{
		{kind: segContID, bare: true},
	}},
	{name: "reNodeInPath", regexVar: "reNodeInPath", segs: []seg{
		{kind: segLit, lit: "yarn-nodemanager-"}, {kind: segDotPlus},
		{kind: segLit, lit: ".log"}, {kind: segEnd},
	}},
	{name: "reAppInLine", regexVar: "reAppInLine", segs: []seg{
		{kind: segAltLit, lit: "application", lit2: "container"},
		{kind: segLit, lit: "_"}, {kind: segDigits},
		{kind: segLit, lit: "_"}, {kind: segDigits},
	}},
}

func isWordByte(c byte) bool {
	return c == '_' || ('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// isSpaceByte is Go regexp's \s: [\t\n\f\r ] (no \v).
func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigitByte(c byte) bool { return '0' <= c && c <= '9' }

func digitRunEnd(s string, i int) int {
	for i < len(s) && isDigitByte(s[i]) {
		i++
	}
	return i
}

// matchAppIDAt matches application_\d+_\d+ starting exactly at i and
// returns the end offset, or -1.
func matchAppIDAt(s string, i int) int {
	const p = "application_"
	if !strings.HasPrefix(s[i:], p) {
		return -1
	}
	j := i + len(p)
	e := digitRunEnd(s, j)
	if e == j || e >= len(s) || s[e] != '_' {
		return -1
	}
	j = e + 1
	e = digitRunEnd(s, j)
	if e == j {
		return -1
	}
	return e
}

// matchContIDAt matches container_\d+_\d+_\d+_\d+ starting exactly at i.
func matchContIDAt(s string, i int) int {
	const p = "container_"
	if !strings.HasPrefix(s[i:], p) {
		return -1
	}
	j := i + len(p)
	for f := 0; f < 4; f++ {
		e := digitRunEnd(s, j)
		if e == j {
			return -1
		}
		if f == 3 {
			return e
		}
		if e >= len(s) || s[e] != '_' {
			return -1
		}
		j = e + 1
	}
	return -1
}

// anchor returns the next candidate start position >= from for the
// rule's first segment, or -1. A match can only begin at one of these.
func (r *fastRule) anchor(s string, from int) int {
	if from > len(s) {
		return -1
	}
	first := &r.segs[0]
	switch first.kind {
	case segLit:
		j := strings.Index(s[from:], first.lit)
		if j < 0 {
			return -1
		}
		return from + j
	case segAppID:
		j := strings.Index(s[from:], "application_")
		if j < 0 {
			return -1
		}
		return from + j
	case segContID:
		j := strings.Index(s[from:], "container_")
		if j < 0 {
			return -1
		}
		return from + j
	case segAltLit:
		return altBefore(s, from, first.lit, first.lit2, r.segs[1].lit[0])
	}
	panic("core: fast rule " + r.name + " starts with an unanchorable segment")
}

// altBefore returns the leftmost start >= from of lit or lit2 followed
// by the byte c, or -1: it scans s for c once, and checks the word
// before each c, rather than scanning s once per literal. Neither
// literal may contain c (segValidate checks it), so a literal that ends
// at a later c starts after one that ends at an earlier c, and the
// first c that either literal precedes gives the leftmost start.
func altBefore(s string, from int, lit, lit2 string, c byte) int {
	for p := from; ; p++ {
		j := strings.IndexByte(s[p:], c)
		if j < 0 {
			return -1
		}
		p += j
		start := -1
		if b := p - len(lit); b >= from && s[b:p] == lit {
			start = b
		}
		if b := p - len(lit2); b >= from && s[b:p] == lit2 && (start < 0 || b < start) {
			start = b
		}
		if start >= 0 {
			return start
		}
	}
}

// match runs the rule over s with regexp search semantics and fills m's
// captures on success. It never allocates.
func (r *fastRule) match(s string, m *fastMatch) bool {
	for from := 0; ; {
		pos := r.anchor(s, from)
		if pos < 0 {
			return false
		}
		m.n = 0
		if matchSegsAt(s, pos, r.segs, m) {
			return true
		}
		from = pos + 1
	}
}

func (m *fastMatch) record(beg, end int) {
	m.sp[m.n] = span{beg, end}
	m.n++
}

func matchSegsAt(s string, i int, segs []seg, m *fastMatch) bool {
	for k := 0; k < len(segs); k++ {
		sg := &segs[k]
		switch sg.kind {
		case segLit:
			if !strings.HasPrefix(s[i:], sg.lit) {
				return false
			}
			i += len(sg.lit)
		case segOptLit:
			// (lit)? before a literal: the greedy present branch commits
			// only if the following literal also fits, otherwise the
			// absent branch is the one regexp backtracking would take.
			if strings.HasPrefix(s[i:], sg.lit) && strings.HasPrefix(s[i+len(sg.lit):], segs[k+1].lit) {
				i += len(sg.lit)
			}
		case segAppID:
			e := matchAppIDAt(s, i)
			if e < 0 {
				return false
			}
			m.record(i, e)
			i = e
		case segContID:
			e := matchContIDAt(s, i)
			if e < 0 {
				return false
			}
			m.record(i, e)
			i = e
		case segWord, segNonSpace, segDigits:
			e := i
			switch sg.kind {
			case segWord:
				for e < len(s) && isWordByte(s[e]) {
					e++
				}
			case segNonSpace:
				for e < len(s) && !isSpaceByte(s[e]) {
					e++
				}
			default:
				e = digitRunEnd(s, e)
			}
			if e == i {
				return false
			}
			m.record(i, e)
			i = e
		case segDotStar:
			// Greedy `.*lit`: try the rightmost occurrence of lit before
			// the first newline, then earlier ones, exactly regexp's
			// preference order.
			lit := segs[k+1].lit
			hi := i + strings.IndexByte(s[i:], '\n')
			if hi < i {
				hi = len(s)
			} else {
				hi += len(lit) // lit may touch but not cross the newline
				if hi > len(s) {
					hi = len(s)
				}
			}
			for {
				j := strings.LastIndex(s[i:hi], lit)
				if j < 0 {
					return false
				}
				save := m.n
				if matchSegsAt(s, i+j+len(lit), segs[k+2:], m) {
					return true
				}
				m.n = save
				hi = i + j + len(lit) - 1
			}
		case segDotPlus:
			// `(.+)lit$`: lit must be a suffix and the capture newline-free.
			lit := segs[k+1].lit
			if !strings.HasSuffix(s, lit) {
				return false
			}
			end := len(s) - len(lit)
			if end <= i || strings.IndexByte(s[i:end], '\n') >= 0 {
				return false
			}
			m.record(i, end)
			i = len(s)
			k += 2 // consumed lit; the loop lands on segEnd
		case segEnd:
			if i != len(s) {
				return false
			}
		case segAltLit:
			switch {
			case strings.HasPrefix(s[i:], sg.lit):
				i += len(sg.lit)
			case strings.HasPrefix(s[i:], sg.lit2):
				i += len(sg.lit2)
			default:
				return false
			}
		}
	}
	return true
}

// contains is match without captures, for the pure-literal body rules.
func (r *fastRule) contains(s string) bool {
	var m fastMatch
	return r.match(s, &m)
}

// segValidate panics unless every rule stays inside the shapes the
// matcher is exact for. It runs once at init so an edit that breaks an
// equivalence precondition fails every test immediately.
func segValidate() {
	check := func(r *fastRule) {
		segs := r.segs
		caps := 0
		bad := func(why string) {
			panic("core: fast rule " + r.name + ": " + why)
		}
		for k, sg := range segs {
			litFollows := func(class func(byte) bool, what string) {
				if k+1 == len(segs) {
					return
				}
				next := segs[k+1]
				if next.kind == segEnd {
					return
				}
				if next.kind != segLit || next.lit == "" || class(next.lit[0]) {
					bad(what + " run must be followed by a literal starting outside the class")
				}
			}
			switch sg.kind {
			case segLit:
				if sg.lit == "" {
					bad("empty literal")
				}
			case segOptLit:
				if k+1 >= len(segs) || segs[k+1].kind != segLit {
					bad("optional literal must be followed by a literal")
				}
			case segAppID, segContID:
				caps++
				litFollows(isDigitByte, "ID")
			case segWord:
				caps++
				litFollows(isWordByte, "\\w+")
			case segNonSpace:
				caps++
				litFollows(func(c byte) bool { return !isSpaceByte(c) }, "\\S+")
			case segDigits:
				caps++
				litFollows(isDigitByte, "\\d+")
			case segDotStar:
				if k+1 >= len(segs) || segs[k+1].kind != segLit {
					bad(".* must be followed by a literal")
				}
			case segDotPlus:
				caps++
				if k+2 >= len(segs) || segs[k+1].kind != segLit || segs[k+2].kind != segEnd {
					bad("(.+) must be followed by a literal and $")
				}
			case segEnd:
				if k+1 != len(segs) {
					bad("$ must be last")
				}
			case segAltLit:
				if sg.lit == "" || sg.lit2 == "" || k+1 >= len(segs) || segs[k+1].kind != segLit || segs[k+1].lit == "" ||
					strings.IndexByte(sg.lit, segs[k+1].lit[0]) >= 0 || strings.IndexByte(sg.lit2, segs[k+1].lit[0]) >= 0 {
					bad("alternation must be followed by a literal whose first byte is in neither branch")
				}
			}
		}
		if caps > len(fastMatch{}.sp) {
			bad("too many captures")
		}
		if len(segs) == 0 {
			bad("empty rule")
		}
		r.anchor("", 0) // panics on unanchorable first segment
	}
	for i := range fastDaemonRules {
		check(&fastDaemonRules[i])
	}
	for i := range fastBodyRules {
		check(&fastBodyRules[i])
	}
	for i := range fastHelperRules {
		check(&fastHelperRules[i])
	}
}

func init() {
	segValidate()
	// The emit switches in parser.go index these tables by the rule
	// constants; pin the correspondence.
	for i, want := range []string{"app_summary", "app_state", "rm_container", "nm_container",
		"launch_invoked", "opp_queued", "assigned", "opp_assigned"} {
		if fastDaemonRules[i].name != want {
			panic("core: fastDaemonRules order drifted from the mining cascade")
		}
	}
	for i, want := range []string{"register", "start_allo", "end_allo", "first_task"} {
		if fastBodyRules[i].name != want {
			panic("core: fastBodyRules order drifted")
		}
	}
	for i, want := range []string{"reContainerInPath", "reNodeInPath", "reAppInLine"} {
		if fastHelperRules[i].name != want {
			panic("core: fastHelperRules order drifted")
		}
	}
}

// ruleRegex renders the rule's segments as the regex the byte matcher
// implements. For every rule this is byte-for-byte the pattern declared
// in parser.go (asserted by TestFastSpecPatternsMatchSource), and sdlint
// proves the languages coincide even if the bytes ever diverge.
func (r *fastRule) ruleRegex() string {
	var b strings.Builder
	wrap := func(body string, bare bool) {
		if bare {
			b.WriteString(body)
			return
		}
		b.WriteString("(")
		b.WriteString(body)
		b.WriteString(")")
	}
	for _, sg := range r.segs {
		switch sg.kind {
		case segLit:
			b.WriteString(regexp.QuoteMeta(sg.lit))
		case segOptLit:
			b.WriteString("(")
			b.WriteString(regexp.QuoteMeta(sg.lit))
			b.WriteString(")?")
		case segAppID:
			wrap(`application_\d+_\d+`, sg.bare)
		case segContID:
			wrap(`container_\d+_\d+_\d+_\d+`, sg.bare)
		case segWord:
			wrap(`\w+`, sg.bare)
		case segNonSpace:
			wrap(`\S+`, sg.bare)
		case segDigits:
			wrap(`\d+`, sg.bare)
		case segDotStar:
			b.WriteString(`.*`)
		case segDotPlus:
			wrap(`.+`, sg.bare)
		case segEnd:
			b.WriteString(`$`)
		case segAltLit:
			b.WriteString("(?:")
			b.WriteString(regexp.QuoteMeta(sg.lit))
			b.WriteString("|")
			b.WriteString(regexp.QuoteMeta(sg.lit2))
			b.WriteString(")")
		}
	}
	return b.String()
}

// FastRuleSpec describes one fast-path rule for the sdlint equivalence
// proof: the metric (or helper) name, the miner regex variable the rule
// replaces, and the regex generated from the same segment table the
// byte matcher executes.
type FastRuleSpec struct {
	Name     string
	RegexVar string
	Pattern  string
}

// FastPathSpec exports the full dispatch table — every daemon, container
// body, and helper rule — so sdlint's logvocab analyzer can prove each
// rule equivalent to its declared regex and the table complete against
// the vocabulary manifest.
func FastPathSpec() []FastRuleSpec {
	var out []FastRuleSpec
	for _, tbl := range [][]fastRule{fastDaemonRules, fastBodyRules, fastHelperRules} {
		for i := range tbl {
			r := &tbl[i]
			out = append(out, FastRuleSpec{Name: r.name, RegexVar: r.regexVar, Pattern: r.ruleRegex()})
		}
	}
	return out
}

// fastParseAppID parses a span the matcher already validated as
// application_\d+_\d+ without allocating; on integer overflow it falls
// back to ids.ParseAppID so the error text (and therefore the parser's
// warning) is identical to the reference implementation's.
func fastParseAppID(s string) (ids.AppID, error) {
	rest := s[len("application_"):]
	us := strings.IndexByte(rest, '_')
	cts, ok1 := parseDecimal(rest[:us])
	seq, ok2 := parseDecimal(rest[us+1:])
	if !ok1 || !ok2 {
		return ids.ParseAppID(s)
	}
	return ids.AppID{ClusterTS: cts, Seq: int(seq)}, nil
}

// fastParseContainerID is fastParseAppID for container_\d+_\d+_\d+_\d+.
func fastParseContainerID(s string) (ids.ContainerID, error) {
	rest := s[len("container_"):]
	u1 := strings.IndexByte(rest, '_')
	u2 := u1 + 1 + strings.IndexByte(rest[u1+1:], '_')
	u3 := u2 + 1 + strings.IndexByte(rest[u2+1:], '_')
	cts, ok1 := parseDecimal(rest[:u1])
	seq, ok2 := parseDecimal(rest[u1+1 : u2])
	att, ok3 := parseDecimal(rest[u2+1 : u3])
	num, ok4 := parseDecimal(rest[u3+1:])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return ids.ParseContainerID(s)
	}
	return ids.ContainerID{
		App:     ids.AppID{ClusterTS: cts, Seq: int(seq)},
		Attempt: int(att),
		Num:     int(num),
	}, nil
}

// parseDecimal parses an all-digit string as a non-negative int64,
// reporting false on overflow (strconv's out-of-range case).
func parseDecimal(s string) (int64, bool) {
	var n int64
	for i := 0; i < len(s); i++ {
		d := int64(s[i] - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// fastFindContainerID finds the leftmost container ID in s (the fast
// reContainerInPath.FindString + ids.ParseContainerID). found reports a
// textual match; err is non-nil when the match overflows integer parsing.
func fastFindContainerID(s string) (cid ids.ContainerID, found bool, err error) {
	var m fastMatch
	if !fastHelperRules[ruleContainerInPath].match(s, &m) {
		return ids.ContainerID{}, false, nil
	}
	cid, err = fastParseContainerID(m.get(s, 0))
	return cid, true, err
}

// fastNodeFromPath is nodeFromPath without the regexp: the capture of
// yarn-nodemanager-(.+)\.log$ or "".
func fastNodeFromPath(name string) string {
	var m fastMatch
	if !fastHelperRules[ruleNodeInPath].match(name, &m) {
		return ""
	}
	return m.get(name, 0)
}

// fastAppInLine is the fast reAppInLine route helper: the leftmost
// application/container ID prefix in raw, parsed. ok is false when there
// is no match or the leftmost match overflows (the sharded router falls
// back to source-hash placement in both cases, exactly like the
// strconv-error path of the regex router).
func fastAppInLine(raw string) (ids.AppID, bool) {
	var m fastMatch
	if !fastHelperRules[ruleAppInLine].match(raw, &m) {
		return ids.AppID{}, false
	}
	cts, ok1 := parseDecimal(m.get(raw, 0))
	seq, ok2 := parseDecimal(m.get(raw, 1))
	if !ok1 || !ok2 {
		return ids.AppID{}, false
	}
	return ids.AppID{ClusterTS: cts, Seq: int(seq)}, true
}

// MaxLineBytes is the longest log line SDchecker reads, offline and
// live alike: a line of this many bytes or more, counting a trailing
// '\r', is skipped, and the miner goes on with the next one.
const MaxLineBytes = 4 * 1024 * 1024

// segmentIter splits a raw feed into lines: on '\n', one trailing '\r'
// dropped per segment, no final empty segment after a trailing newline.
// A segment of MaxLineBytes or more (measured before the '\r' drop) is
// passed over.
type segmentIter struct {
	raw   string
	start int
}

func (it *segmentIter) next() (string, bool) {
	for it.start < len(it.raw) {
		seg := it.raw[it.start:]
		if nl := strings.IndexByte(seg, '\n'); nl >= 0 {
			seg = seg[:nl]
			it.start += nl + 1
		} else {
			it.start = len(it.raw)
		}
		if len(seg) >= MaxLineBytes {
			continue
		}
		if len(seg) > 0 && seg[len(seg)-1] == '\r' {
			seg = seg[:len(seg)-1]
		}
		return seg, true
	}
	return "", false
}

// readChunk is how much a BlockReader reads at a time.
const readChunk = 128 << 10

// BlockReader is the one log-file reader, offline and live. It reads
// through one reused buffer of readChunk bytes and hands out each run
// of complete lines, '\n' included, as one block. A block is a view of
// the buffer, not a copy: it is valid until the next Next or Reset,
// which may read over its bytes, so a caller that keeps a block, or a
// string sliced from it, past that must clone it. The buffer grows only
// to hold an unfinished line: a line of MaxLineBytes or more, counting
// a trailing '\r', is skipped even while unfinished, so no block holds
// one. The unterminated tail is held back for the caller.
type BlockReader struct {
	r         io.Reader
	buf       []byte
	off, n    int   // buf[off:n] holds the bytes read and not yet handed out
	consumed  int64 // bytes handed out in blocks or skipped
	skipping  bool  // inside an over-long line
	skipped   int   // over-long lines met since Reset
	skippedAt int64 // where the first of them starts, from Reset on, or -1
	err       error // the read error that ended r, io.EOF included
}

// Reset starts reading r. skipping resumes inside an over-long line, as
// Consumed reported at the end of the previous read of the same file.
func (br *BlockReader) Reset(r io.Reader, skipping bool) {
	*br = BlockReader{r: r, buf: br.buf, skipping: skipping, skippedAt: -1}
	if len(br.buf) != readChunk {
		br.buf = make([]byte, readChunk) // first use, or a long tail grew it
	}
}

// Next returns the next block of complete lines, a view of the buffer
// valid until the next call. It returns false once r has ended or failed
// (see Err), the unterminated tail still held back.
func (br *BlockReader) Next() (string, bool) {
	for {
		if br.skipping {
			// Inside an over-long line: discard through its newline.
			k := br.n - br.off
			if i := bytes.IndexByte(br.buf[br.off:br.n], '\n'); i >= 0 {
				k, br.skipping = i+1, false
			}
			br.consume(k)
		}
		if last := bytes.LastIndexByte(br.buf[br.off:br.n], '\n'); last >= 0 {
			block := unsafe.String(&br.buf[br.off], last+1)
			br.consume(last + 1)
			return block, true
		}
		if br.n-br.off == MaxLineBytes {
			if br.skippedAt < 0 {
				br.skippedAt = br.consumed
			}
			br.skipped++
			br.skipping = true
			br.consume(br.n - br.off)
		}
		if br.err != nil {
			return "", false
		}
		br.fill()
	}
}

// tail returns the unterminated bytes Next held back when r ended, a
// view of the buffer like a block.
func (br *BlockReader) tail() string {
	if br.off == br.n {
		return ""
	}
	return unsafe.String(&br.buf[br.off], br.n-br.off)
}

// fill moves the unread bytes to the front of the buffer, over the
// blocks already handed out, and reads until the buffer is full or r
// has ended, first growing the buffer if an unfinished line fills it.
// Once the unread bytes fit a chunk, a buffer an unfinished line grew
// goes back to readChunk bytes.
func (br *BlockReader) fill() {
	rest := br.buf[br.off:br.n]
	if len(br.buf) > readChunk && len(rest) <= readChunk {
		br.buf = make([]byte, readChunk)
	}
	br.off, br.n = 0, copy(br.buf, rest)
	if br.n == len(br.buf) {
		grow := min(br.n, MaxLineBytes-br.n)
		br.buf = slices.Grow(br.buf, grow)[:br.n+grow]
	}
	for br.n < len(br.buf) && br.err == nil {
		var m int
		m, br.err = br.r.Read(br.buf[br.n:])
		br.n += m
	}
}

// consume hands out or skips the first k unread bytes.
func (br *BlockReader) consume(k int) {
	br.consumed += int64(k)
	br.off += k
}

// Consumed returns how many bytes since Reset were handed out in blocks
// or skipped, whether the read stopped inside an over-long line, and
// where the first over-long line it met starts, or -1.
func (br *BlockReader) Consumed() (n int64, skipping bool, firstSkip int64) {
	return br.consumed, br.skipping, br.skippedAt
}

// Err returns the error that ended the read, or nil at r's end.
func (br *BlockReader) Err() error {
	if br.err == io.EOF {
		return nil
	}
	return br.err
}

// warnSkipped records the lines of MaxLineBytes or more a read of name
// passed over, as one warning per file.
func (p *Parser) warnSkipped(name string, n int) {
	if n > 0 {
		p.warnf("%s: skipped %d line(s) of %d bytes or more", name, n, MaxLineBytes)
	}
}

// feedDaemonSegments mines raw's segments as daemon-log lines on the
// fast matcher: no reader, no scanner buffer, no allocations on
// non-matching lines. A line's message is a substring of it, so a line
// without the prescreen byte cannot match and is not even parsed,
// unless the parser counts parseable lines in its metrics.
func (p *Parser) feedDaemonSegments(source, raw string) {
	it := segmentIter{raw: raw}
	for seg, ok := it.next(); ok; seg, ok = it.next() {
		p.lines++
		if p.met == nil && fastDaemonPrescreenOK && strings.IndexByte(seg, fastDaemonPrescreen) < 0 {
			continue
		}
		line, lok := log4j.ParseLineFast(seg)
		if !lok {
			continue
		}
		p.countLine()
		p.mineDaemonLineFast(source, line)
	}
}

// parseLine mines one live line from source (a container's stderr when
// the path names a container, a daemon log otherwise) into the parser's
// reused event buffer and returns the events, valid until the next
// call. A container line that parses carries a FIRST_LOG classified
// from that line alone; the stream absorbing it keeps the first per
// container and folds the rest into the container's instance. A line
// that does not parse yields nothing, not even the file-level
// no-parseable-lines warning, which no one reads here. Dedup that
// depends on stream state is the absorbing Stream's (absorbRouted).
func (p *Parser) parseLine(source, raw string) []Event {
	p.events = p.events[:0]
	cid, found, err := fastFindContainerID(source)
	switch {
	case !found:
		p.feedDaemonSegments(source, raw)
	case err == nil:
		cs := p.beginContainerScan()
		cs.feed(p, cid, raw)
		if cs.hasFirst {
			cs.finish(p, source, cid)
		}
	}
	return p.events
}
