package core

import (
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// reAppInLine finds the first application or container ID in a raw log
// line. A container ID embeds its application's (clusterTS, seq) prefix,
// so one pattern routes both forms. The router runs its byte-level
// twin, fastAppInLine; tests diff the two.
var reAppInLine = regexp.MustCompile(`(?:application|container)_(\d+)_(\d+)`)

// ShardedStream is the live engine: Feed and FeedBlock route each raw
// line to one of N worker goroutines, each owning a hash-shard of
// application IDs whose state is a Stream. Parsing — the expensive
// part — runs on the workers; correlation state stays shard-local
// because every event of an application lives in exactly one shard
// (events a line produces for a foreign application, possible only on
// adversarial input, are absorbed into the owning shard by the worker
// that parsed the line). One worker is the serial configuration.
//
// Feed and FeedBlock copy what they queue into a small arena of reused
// read-chunk buffers (feedArena), which bounds the bytes fed and not yet
// parsed: when every buffer is held, a feed waits for the workers.
//
// All methods are safe for concurrent use. Feeding is asynchronous: call
// Quiesce to wait until everything fed so far has been absorbed. Reports
// gather applications in submission order and events per application in
// time order, ties in arrival order, so streams fed the same line
// sequence render byte-identical reports regardless of worker count.
type ShardedStream struct {
	shards []*streamShard

	// workMu/workCond track the lines fed but not yet absorbed, for
	// Quiesce. A counter with a condition variable instead of a
	// WaitGroup: Add and Wait may race freely.
	workMu   sync.Mutex
	workCond *sync.Cond
	pending  int
	closed   bool

	// hookMu serializes the user completion hook across shards and
	// guards its installation.
	hookMu sync.Mutex
	hook   func(*AppTrace)

	wg sync.WaitGroup

	arena feedArena

	pmet     *parserMetrics
	met      *streamMetrics
	forwards *metrics.Counter

	// pl, when set, receives per-batch stage timings and flight events.
	// Timing is batched: one clock read pair per grabbed batch, never per
	// line, so the unobserved hot path is untouched.
	pl *obs.Pipeline
}

// streamShard is one worker: an input queue of the raw lines routed here
// and the shard-local state.
type streamShard struct {
	ss *ShardedStream
	i  int

	qMu   sync.Mutex
	qCond *sync.Cond
	lines []queuedLine
	quit  bool
	// spare is the emptied queue of the worker's previous batch, which
	// the worker swaps in for the next one unless keepBatch dropped it
	// (worker goroutine only).
	spare []queuedLine

	// stMu guards the shard's Stream: a worker holds it while absorbing
	// (its own lines' events, or another shard's line's events for this
	// shard's apps), readers hold it while snapshotting.
	stMu sync.Mutex
	st   *Stream

	// processed counts the lines this worker has fully absorbed — the
	// watchdog's per-shard progress signal.
	processed atomic.Int64

	// scratch is this worker's reusable parser (only the worker goroutine
	// touches it); see Stream.scratch. The queued lines are views of the
	// arena's buffers, which the events it mines never alias (see Parser).
	scratch Parser
	// batchEvs and batchEnds are run's reusable parse buffer: the events
	// of a whole line batch back to back, and where each line's events
	// end (worker goroutine only). A buffer that grew past batchKeep
	// entries is released after its batch, so a backlog does not pin
	// its size for the life of the shard.
	batchEvs  []Event
	batchEnds []int

	linesTotal *metrics.Counter
	depth      *metrics.Gauge   // core_shard_queue_depth{shard=i}
	batches    *metrics.Counter // core_shard_batches_total{shard=i}
}

// queuedLine is one line in a shard's queue. raw is a view of chunk's
// buffer, which is written over once the line is retired.
type queuedLine struct {
	source, raw string
	chunk       *feedChunk
}

// view returns the line's bytes, a view of an arena buffer that the
// arena reuses once the worker retires the line: the parse must clone
// whatever it keeps.
func (q *queuedLine) view() string { return q.raw }

// ShardStat is one worker's progress sample for the pipeline watchdog:
// the lines queued for it and the lines it has absorbed so far.
type ShardStat struct {
	Queued    int
	Processed int64
}

// streamMetrics are the stream-level observability hooks; nil until
// Instrument is called.
type streamMetrics struct {
	lines     *metrics.Counter // lines fed
	matched   *metrics.Counter // lines that produced >= 1 event
	dropped   *metrics.Counter // lines that produced nothing
	events    *metrics.Counter // scheduling events absorbed
	inflight  *metrics.Gauge   // apps seen but not yet complete
	completed *metrics.Gauge   // apps with a complete decomposition
	evicted   *metrics.Counter // apps forgotten/evicted
}

// NewShardedStream starts workers goroutines (0 = GOMAXPROCS), each
// owning one shard. Call Close to stop them.
func NewShardedStream(workers int) *ShardedStream {
	return newShardedStream(workers, readChunk, feedBudgetChunks)
}

// newShardedStream is NewShardedStream with an arena of chunks buffers
// of chunk bytes each.
func newShardedStream(workers, chunk, chunks int) *ShardedStream {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ss := &ShardedStream{shards: make([]*streamShard, workers)}
	ss.workCond = sync.NewCond(&ss.workMu)
	ss.arena.init(chunk, chunks, workers)
	for i := range ss.shards {
		sh := &streamShard{ss: ss, i: i, st: NewStream()}
		sh.qCond = sync.NewCond(&sh.qMu)
		sh.st.OnComplete(sh.onComplete)
		ss.shards[i] = sh
	}
	for _, sh := range ss.shards {
		ss.wg.Add(1)
		go sh.run()
	}
	return ss
}

// Workers returns the shard/worker count.
func (ss *ShardedStream) Workers() int { return len(ss.shards) }

// OnComplete registers the hook called the first time an application's
// decomposition becomes fully observable, exactly once per application
// (guaranteed by the owning shard's Stream). Calls are serialized across
// shards; the hook runs on a worker goroutine and must not call back
// into the sharded stream. Install it before feeding.
func (ss *ShardedStream) OnComplete(fn func(*AppTrace)) {
	ss.hookMu.Lock()
	ss.hook = fn
	ss.hookMu.Unlock()
}

// Instrument registers the stream's line/event counters and app gauges,
// the parser counters every worker's parser reports to, per-worker line
// counters (core_shard_lines_total{shard=i}) and the cross-shard event
// forwarding counter. Call once, before feeding; a nil registry is a
// no-op.
func (ss *ShardedStream) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ss.pmet = newParserMetrics(reg)
	ss.met = &streamMetrics{
		lines:     reg.Counter("core_stream_lines_total"),
		matched:   reg.Counter("core_stream_lines_matched_total"),
		dropped:   reg.Counter("core_stream_lines_dropped_total"),
		events:    reg.Counter("core_stream_events_total"),
		inflight:  reg.Gauge("core_stream_apps_inflight"),
		completed: reg.Gauge("core_stream_apps_completed"),
		evicted:   reg.Counter("core_stream_apps_evicted_total"),
	}
	ss.forwards = reg.Counter("core_shard_forwarded_events_total")
	ss.arena.poolMu.Lock()
	ss.arena.inflight = reg.Gauge("core_stream_inflight_bytes")
	ss.arena.stallMS = reg.Counter("core_stream_feed_stall_ms_total")
	ss.arena.poolMu.Unlock()
	for _, sh := range ss.shards {
		sh.linesTotal = reg.Counter("core_shard_lines_total", "shard", strconv.Itoa(sh.i))
		sh.depth = reg.Gauge("core_shard_queue_depth", "shard", strconv.Itoa(sh.i))
		sh.batches = reg.Counter("core_shard_batches_total", "shard", strconv.Itoa(sh.i))
	}
}

// ObservePipeline attaches the self-observability pipeline: workers
// record per-batch stage timings (parse, forward, decompose), and each
// shard's Stream reports hook fires and evictions. Attach before
// feeding; nil keeps the stream unobserved.
func (ss *ShardedStream) ObservePipeline(p *obs.Pipeline) {
	ss.pl = p
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		sh.st.pl = p
		sh.stMu.Unlock()
	}
}

// ShardStats samples every worker's queue depth and progress counter
// for the pipeline watchdog.
func (ss *ShardedStream) ShardStats() []ShardStat {
	out := make([]ShardStat, len(ss.shards))
	for i, sh := range ss.shards {
		sh.qMu.Lock()
		q := len(sh.lines)
		sh.qMu.Unlock()
		out[i] = ShardStat{Queued: q, Processed: sh.processed.Load()}
	}
	return out
}

// shardOf hashes an application ID onto a shard.
func (ss *ShardedStream) shardOf(id ids.AppID) int {
	h := uint64(id.ClusterTS)*0x9e3779b97f4a7c15 + uint64(id.Seq)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(len(ss.shards)))
}

func fnvShard(s string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return int(h % uint32(n))
}

// route picks the shard that will own a line's events: the container ID
// in the source path (container stderr), else the first application or
// container ID in the line body (daemon logs), else a hash of the
// source. On well-formed logs this is exact — every event a line
// produces belongs to the routed application, because each extraction
// regex keys off the line's first ID — so cross-shard forwarding only
// triggers on adversarial input.
func (ss *ShardedStream) route(source, raw string) int {
	// The helpers are allocation-free, which matters here: route runs on
	// the feeding goroutine for every line.
	if cid, found, err := fastFindContainerID(source); found && err == nil {
		return ss.shardOf(cid.App)
	}
	return ss.routeDaemon(source, raw)
}

// routeDaemon is route for a line whose source names no container.
func (ss *ShardedStream) routeDaemon(source, raw string) int {
	if app, ok := fastAppInLine(raw); ok {
		return ss.shardOf(app)
	}
	return fnvShard(source, len(ss.shards))
}

// Feed copies one raw log line into the arena and routes it to its
// owning shard's queue, waiting first while the arena is full. It
// returns true when the line was accepted (false after Close). The
// parse happens asynchronously, so acceptance does not imply the line
// produced events — compare EventCount after Quiesce for that.
func (ss *ShardedStream) Feed(source, rawLine string) bool {
	a := &ss.arena
	a.feedMu.Lock()
	defer a.feedMu.Unlock()
	// At least one byte, so the budget also bounds how many lines queue.
	c, buf := a.take(max(len(rawLine), 1))
	if c == nil {
		return false
	}
	copy(buf, rawLine)
	raw := unsafe.String(unsafe.SliceData(buf), len(rawLine))
	j := ss.route(source, raw)
	a.route[j] = append(a.route[j], queuedLine{source, raw, c})
	return ss.enqueue(c, 1) == 1
}

// FeedBlock copies block into the arena and routes every line of it —
// split as the offline parser splits a file, lines of MaxLineBytes or
// more skipped — from source to its owning shard's queue, waiting first
// while the arena is full. The source's container is resolved once, and
// the block is handed off with one lock of the work counter and one of
// each shard's queue, not once per line. The caller may reuse block as
// soon as FeedBlock returns: a BlockReader's block, a view of its
// buffer, is fed as it is. It returns how many lines were accepted (0
// after Close).
func (ss *ShardedStream) FeedBlock(source, block string) (fed int) {
	if block == "" {
		return 0
	}
	a := &ss.arena
	a.feedMu.Lock()
	defer a.feedMu.Unlock()
	c, buf := a.take(len(block))
	if c == nil {
		return 0
	}
	copy(buf, block)
	own := -1
	if cid, found, err := fastFindContainerID(source); found && err == nil {
		own = ss.shardOf(cid.App)
	}
	it := segmentIter{raw: unsafe.String(unsafe.SliceData(buf), len(buf))}
	for seg, ok := it.next(); ok; seg, ok = it.next() {
		j := own
		if j < 0 {
			j = ss.routeDaemon(source, seg)
		}
		a.route[j] = append(a.route[j], queuedLine{source, seg, c})
		fed++
	}
	return ss.enqueue(c, fed)
}

// enqueue admits the fed lines routed into the arena's route slices,
// hands them to their shards' queues and drops the feed's hold on c,
// the chunk they view. It returns how many lines were accepted: fed, or
// 0 after Close. feedMu is held.
func (ss *ShardedStream) enqueue(c *feedChunk, fed int) int {
	a := &ss.arena
	if fed > 0 && ss.admit(fed) {
		c.refs.Add(int32(fed))
		for j, ls := range a.route {
			if len(ls) > 0 {
				ss.shards[j].push(ls)
			}
		}
	} else {
		fed = 0
	}
	for j, ls := range a.route {
		a.route[j] = keepBatch(ls)
	}
	a.release(c, 1)
	return fed
}

// admit raises the pending work count by n lines about to be queued. It
// returns false after Close, and then nothing may be queued.
func (ss *ShardedStream) admit(n int) bool {
	ss.workMu.Lock()
	if ss.closed {
		ss.workMu.Unlock()
		return false
	}
	ss.pending += n
	ss.workMu.Unlock()
	if ss.met != nil {
		ss.met.lines.Add(int64(n))
	}
	return true
}

// push appends admitted lines to the shard's queue and wakes its worker.
func (sh *streamShard) push(lines []queuedLine) {
	sh.qMu.Lock()
	sh.lines = append(sh.lines, lines...)
	sh.depth.Set(int64(len(sh.lines)))
	sh.qCond.Signal()
	sh.qMu.Unlock()
}

// forward absorbs events parsed on shard `from` into shard j, which owns
// their application, at once: the forwarding worker holds only shard j's
// stMu while it does, and returns before its line is retired, so Quiesce
// never sees a forwarded event in flight. The forward stage batch is
// timed here, labeled with shard j, inside the worker's decompose span.
func (ss *ShardedStream) forward(from, j int, evs []Event) {
	if ss.forwards != nil {
		ss.forwards.Add(int64(len(evs)))
	}
	ss.pl.RecordForward(from, j, len(evs))
	t := ss.pl.Begin()
	ss.shards[j].absorb(evs)
	ss.pl.StageBatch(obs.StageForward, j, t, len(evs))
}

// done retires n fed lines.
func (ss *ShardedStream) done(n int) {
	ss.workMu.Lock()
	ss.pending -= n
	if ss.pending == 0 {
		ss.workCond.Broadcast()
	}
	ss.workMu.Unlock()
}

// Quiesce blocks until every line accepted so far has been parsed and
// absorbed, then refreshes the app gauges.
func (ss *ShardedStream) Quiesce() {
	ss.workMu.Lock()
	for ss.pending > 0 {
		ss.workCond.Wait()
	}
	ss.workMu.Unlock()
	ss.updateAppGauges()
}

// Close drains pending work and stops the workers. The read side
// (Report, Apps, ...) stays usable afterwards; Feed returns
// false. Stop concurrent feeders first: lines racing Close may be
// rejected.
func (ss *ShardedStream) Close() {
	ss.arena.close()
	ss.workMu.Lock()
	ss.closed = true
	for ss.pending > 0 {
		ss.workCond.Wait()
	}
	ss.workMu.Unlock()
	for _, sh := range ss.shards {
		sh.qMu.Lock()
		sh.quit = true
		sh.qCond.Broadcast()
		sh.qMu.Unlock()
	}
	ss.wg.Wait()
	// The workers are done, so this leaves no buffer held.
	ss.arena.feedMu.Lock()
	ss.arena.dropCurrent()
	ss.arena.feedMu.Unlock()
}

// run is the worker loop. It takes everything queued as one batch,
// parses all its lines, then absorbs them in order. Each phase is
// bracketed by one clock read, so stage timing costs O(1) per batch, not
// O(lines), and nothing when no pipeline is attached.
func (sh *streamShard) run() {
	defer sh.ss.wg.Done()
	for {
		sh.qMu.Lock()
		for len(sh.lines) == 0 && !sh.quit {
			sh.qCond.Wait()
		}
		if len(sh.lines) == 0 {
			sh.qMu.Unlock()
			return // quit and drained
		}
		lines := sh.lines
		sh.lines, sh.spare = sh.spare, nil
		sh.depth.Set(0)
		sh.qMu.Unlock()

		pl := sh.ss.pl
		t := pl.Begin()
		sh.linesTotal.Add(int64(len(lines)))
		sh.scratch.met = sh.ss.pmet
		evs, ends := sh.batchEvs[:0], sh.batchEnds[:0]
		// The parse is the last reader of a line's bytes, so each run of
		// lines in one chunk is retired as soon as it is parsed, and a
		// waiting feed need not wait for the rest of the batch.
		var c *feedChunk
		run := 0
		for i := range lines {
			ln := &lines[i]
			if ln.chunk != c {
				if run > 0 {
					sh.ss.arena.release(c, run)
				}
				c, run = ln.chunk, 0
			}
			// Copied out of the scratch parser, which the next line reuses.
			evs = append(evs, sh.scratch.parseLine(ln.source, ln.view())...)
			ends = append(ends, len(evs))
			run++
		}
		sh.ss.arena.release(c, run)
		mid := pl.Begin()
		start := 0
		for _, end := range ends {
			sh.routeAndAbsorb(evs[start:end:end])
			start = end
		}
		sh.ss.done(len(lines))
		sh.batchEvs, sh.batchEnds = keepBatch(evs), keepBatch(ends)
		sh.spare = keepBatch(lines)
		// Parsing and absorbing (correlate, the Complete predicate and
		// the hook's decompositions) share the middle clock read;
		// splitting the phases costs no extra reads.
		pl.StageSpan(obs.StageParse, sh.i, t, mid, len(lines))
		pl.StageBatch(obs.StageDecompose, sh.i, mid, len(lines))
		sh.processed.Add(int64(len(lines)))
		sh.batches.Inc()
	}
}

// batchKeep is the most entries a shard's parse buffers, its spare
// queue and the arena's route slices keep between batches: a budget's
// worth of 512-byte lines, a quarter of the ~128-byte lines of the
// simulator's daemon logs that fill the budget. The steady live trickle
// fits, a backfill's batches do not; keeping those too, at up to a
// budget's worth of lines each, measured 235 B/event retained in
// TestShardedBackfillRetainedAlloc.
const batchKeep = feedBudgetChunks * readChunk / 512

// keepBatch returns buf emptied for the next batch, or nil when it grew
// past batchKeep. A kept buffer is cleared so it holds no strings of the
// batch until it is refilled.
func keepBatch[T any](buf []T) []T {
	if cap(buf) > batchKeep {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// feedBudgetChunks bounds the live engine's admitted, unretired bytes,
// in read chunks: the arena holds at most this many buffers of
// readChunk bytes (512 KiB). Everything a feeder reads ahead of the
// workers is held there, so the bound is what a -serve catch-up keeps of
// the tree. Measured on a 2-CPU VM (bench/run.sh serve-backfill, 10 s,
// median peak RSS of 10 alternating pairs): 4 chunks 61.9 MB at seed 97
// and 62.2 MB at seed 131, against 68.4 and 69.7 MB with every block
// cloned and queued without a bound; 16 chunks 63.3 MB (3 runs, seed
// 97). Catch-up time did not move beyond run-to-run spread.
const feedBudgetChunks = 4

// feedChunk is one arena buffer. refs counts the queued lines that view
// buf, plus one while it is the arena's current chunk and one while a
// feed copies into it; the release of the last returns it to the arena.
type feedChunk struct {
	buf  []byte
	refs atomic.Int32
}

// feedArena is the pool of buffers that Feed and FeedBlock copy what they
// queue into, and the live engine's byte budget. A feed takes room in
// the current chunk, packed back to back with the feeds before it, or a
// fresh chunk once it does not fit; a block longer than a chunk gets a
// buffer of its own. Chunks are allocated lazily up to the budget, the
// first ones small: each fresh chunk is twice the size of the one before
// it, up to a full chunk, so a small tree or a trickle does not pay for
// full chunks. A feed that finds every byte of the budget held waits for
// the workers to retire lines, on poolCond, holding no lock of the
// stream's. Once nothing but the current chunk is held the spare chunks
// are dropped, so an idle stream keeps one chunk.
type feedArena struct {
	// feedMu serializes feeds, each held across its wait for room; it
	// guards cur, off and route.
	feedMu sync.Mutex
	cur    *feedChunk
	off    int // where the next feed goes in cur
	// route is the feed's lines per shard, emptied after each feed.
	route [][]queuedLine

	// poolMu guards the rest; poolCond wakes a feed waiting for room.
	poolMu   sync.Mutex
	poolCond *sync.Cond
	// chunk is a full chunk's size in bytes, budget the most bytes held,
	// and grow the size of the next fresh chunk.
	chunk, budget, grow int
	// held is the bytes of the chunks that lines, a feed or the current
	// chunk hold, and nheld how many chunks that is.
	held, nheld int
	free        []*feedChunk // full chunks
	closed      bool
	waiting     bool // a feed waits for room
	// stalled is the time feeds waited, stallReported what stallMS has
	// been told of it, in milliseconds.
	stalled       time.Duration
	stallReported int64
	// poison overwrites each buffer with 0xFF once its lines are retired,
	// so a view kept past retirement reads garbage; race builds set it.
	poison bool

	inflight *metrics.Gauge   // core_stream_inflight_bytes: held
	stallMS  *metrics.Counter // core_stream_feed_stall_ms_total
}

// firstChunk is the size of an arena's first chunk.
const firstChunk = 4 << 10

func (a *feedArena) init(chunk, chunks, shards int) {
	a.chunk, a.budget, a.grow = chunk, chunk*chunks, min(firstChunk, chunk)
	a.route = make([][]queuedLine, shards)
	a.poolCond = sync.NewCond(&a.poolMu)
	a.poison = raceBuild
}

// take returns n bytes of arena for one feed and the chunk they are in,
// held for the feed, or nil after Close. It waits while the budget is
// spent. feedMu is held.
func (a *feedArena) take(n int) (*feedChunk, []byte) {
	if c := a.cur; c != nil && n <= len(c.buf) {
		if c.refs.Load() == 1 {
			// Only the current-chunk hold is left: every line that
			// viewed it is retired, so it is reused from its start.
			a.scrub(c.buf[:a.off])
			a.off = 0
		}
		if a.off+n <= len(c.buf) {
			c.refs.Add(1)
			b := c.buf[a.off : a.off+n : a.off+n]
			a.off += n
			return c, b
		}
	}
	a.dropCurrent()
	c := a.acquire(n)
	if c == nil {
		return nil, nil
	}
	if n <= a.chunk {
		c.refs.Store(2)
		a.cur, a.off = c, n
	} else {
		c.refs.Store(1)
	}
	return c, c.buf[:n:n]
}

// acquire returns a chunk of at least n bytes, counted as held, once it
// fits in the budget beside what is held (or nothing is held), or nil
// after Close: a buffer of its own for n above a chunk, else a full
// chunk off the free list or a fresh one of the growing size.
func (a *feedArena) acquire(n int) *feedChunk {
	a.poolMu.Lock()
	defer a.poolMu.Unlock()
	size := n
	if n <= a.chunk {
		// A full chunk is on the free list only once grow is full.
		size = max(n, a.grow)
	}
	if !a.closed && a.held > 0 && a.held+size > a.budget {
		start := time.Now()
		a.waiting = true
		for !a.closed && a.held > 0 && a.held+size > a.budget {
			a.poolCond.Wait()
		}
		a.waiting = false
		a.stalled += time.Since(start)
		ms := a.stalled.Milliseconds()
		a.stallMS.Add(ms - a.stallReported)
		a.stallReported = ms
	}
	if a.closed {
		return nil
	}
	var c *feedChunk
	if k := len(a.free); k > 0 && size == a.chunk {
		c = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
	} else {
		c = &feedChunk{buf: make([]byte, size)}
		if size <= a.chunk {
			a.grow = min(2*size, a.chunk)
		}
	}
	a.held += size
	a.nheld++
	a.inflight.Set(int64(a.held))
	return c
}

// release drops n holds on c. The last one returns its buffer: to the
// free list while other chunks are held, else to the collector with
// the free list, and wakes a waiting feed.
func (a *feedArena) release(c *feedChunk, n int) {
	if c.refs.Add(int32(-n)) != 0 {
		return
	}
	a.poolMu.Lock()
	a.held -= len(c.buf)
	a.nheld--
	a.scrub(c.buf)
	switch {
	case a.nheld <= 1:
		clear(a.free)
		a.free = a.free[:0]
	case len(c.buf) == a.chunk:
		a.free = append(a.free, c)
	}
	a.inflight.Set(int64(a.held))
	a.poolCond.Signal()
	a.poolMu.Unlock()
}

// scrub overwrites b with 0xFF when the arena poisons retired bytes.
func (a *feedArena) scrub(b []byte) {
	if a.poison {
		for i := range b {
			b[i] = 0xFF
		}
	}
}

// close fails every feed from now on, a waiting one included.
func (a *feedArena) close() {
	a.poolMu.Lock()
	a.closed = true
	a.poolCond.Broadcast()
	a.poolMu.Unlock()
}

// dropCurrent releases the arena's hold on its current chunk. feedMu is
// held.
func (a *feedArena) dropCurrent() {
	if c := a.cur; c != nil {
		a.cur = nil
		a.release(c, 1)
	}
}

// onComplete is installed on every shard's Stream: it relays to the user
// hook, serialized across shards by hookMu (the worker holds stMu here).
func (sh *streamShard) onComplete(a *AppTrace) {
	sh.ss.hookMu.Lock()
	if h := sh.ss.hook; h != nil {
		h(a)
	}
	sh.ss.hookMu.Unlock()
}

// routeAndAbsorb splits one line's events into shard-local and foreign,
// forwards the foreign batches, absorbs the rest, and maintains the
// matched/dropped line counters. It holds no lock of its own shard while
// it forwards, so a worker never holds two shards' stMu.
func (sh *streamShard) routeAndAbsorb(evs []Event) {
	matched := false
	if len(evs) > 0 {
		own := evs[:0]
		var foreign map[int][]Event
		for _, e := range evs {
			j := sh.ss.shardOf(e.App())
			if j == sh.i {
				own = append(own, e)
				continue
			}
			if foreign == nil {
				foreign = make(map[int][]Event)
			}
			foreign[j] = append(foreign[j], e)
		}
		for j, f := range foreign {
			sh.ss.forward(sh.i, j, f)
			matched = true
		}
		if sh.absorb(own) > 0 {
			matched = true
		}
	}
	if m := sh.ss.met; m != nil {
		if matched {
			m.matched.Inc()
		} else {
			m.dropped.Inc()
		}
	}
}

func (sh *streamShard) absorb(evs []Event) int {
	if len(evs) == 0 {
		return 0
	}
	sh.stMu.Lock()
	n := sh.st.absorbRouted(evs)
	sh.stMu.Unlock()
	if n > 0 && sh.ss.met != nil {
		sh.ss.met.events.Add(int64(n))
	}
	return n
}

// EventCount returns the number of scheduling events absorbed so far
// across all shards.
func (ss *ShardedStream) EventCount() int {
	n := 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		n += sh.st.EventCount()
		sh.stMu.Unlock()
	}
	return n
}

// AppCount returns the number of applications tracked across all
// shards, without snapshotting their traces as Apps does.
func (ss *ShardedStream) AppCount() int {
	n := 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		n += len(sh.st.apps)
		sh.stMu.Unlock()
	}
	return n
}

// LastEventMS returns the latest event timestamp absorbed by any shard.
func (ss *ShardedStream) LastEventMS() int64 {
	var last int64
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		if ms := sh.st.lastMS; ms > last {
			last = ms
		}
		sh.stMu.Unlock()
	}
	return last
}

// App returns the live trace for one application, or nil.
func (ss *ShardedStream) App(id ids.AppID) *AppTrace {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	defer sh.stMu.Unlock()
	return sh.st.trace(id)
}

// Complete reports whether an application's headline decomposition is
// fully observable and anomaly-free (the Decomposition.Complete flag) —
// the signal a live dashboard uses to mark a row final.
func (ss *ShardedStream) Complete(id ids.AppID) bool {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	defer sh.stMu.Unlock()
	b := sh.st.apps[id]
	return b != nil && b.completed
}

// Apps returns the live traces across all shards ordered by submission
// sequence.
func (ss *ShardedStream) Apps() []*AppTrace {
	var out []*AppTrace
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		out = append(out, sh.st.traces()...)
		sh.stMu.Unlock()
	}
	sortTracesBySeq(out)
	return out
}

// Report snapshots the current state into a full report, gathering
// applications in submission order — the same deterministic gathering
// Stream.Report uses, so streams fed the same lines render
// byte-identical reports at any worker count. Quiesce first if every fed
// line must be included. The traces are immutable snapshots, so only
// Apps takes the shard locks.
func (ss *ShardedStream) Report() *Report { return liveReport(ss.Apps()) }

// Forget drops all state for one application from its owning shard.
func (ss *ShardedStream) Forget(id ids.AppID) {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	had := sh.st.apps[id] != nil
	sh.st.forget(id)
	sh.stMu.Unlock()
	if had && ss.met != nil {
		ss.met.evicted.Inc()
	}
}

// EvictCompleted forgets completed applications, oldest submission
// first, until at most keep remain across all shards. In-flight
// applications are never evicted: their decompositions are still
// growing.
func (ss *ShardedStream) EvictCompleted(keep int) int {
	return ss.evict(max(keep, 0), func(st *Stream) int { return st.nCompleted },
		func(b *traceBuilder) bool { return b.completed })
}

// EvictOldest is the hard memory bound behind EvictCompleted: it
// forgets the oldest applications by submission sequence — complete or
// not — until at most max are tracked across all shards. Garbage input
// can mint unbounded app IDs whose decompositions never complete;
// without this bound a tailing server would hold them all forever.
func (ss *ShardedStream) EvictOldest(max int) int {
	if max < 0 {
		return 0
	}
	return ss.evict(max, func(st *Stream) int { return len(st.apps) },
		func(*traceBuilder) bool { return true })
}

// evict forgets the eligible applications, oldest submission first,
// until at most keep of them remain, and returns how many it forgot.
// count is how many of a shard's applications are eligible: a call
// that finds at most keep across the shards returns before collecting
// a single candidate.
func (ss *ShardedStream) evict(keep int, count func(*Stream) int, eligible func(*traceBuilder) bool) int {
	n := 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		n += count(sh.st)
		sh.stMu.Unlock()
	}
	if n <= keep {
		return 0
	}
	var cands []ids.AppID
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		for id, b := range sh.st.apps {
			if eligible(b) {
				cands = append(cands, id)
			}
		}
		sh.stMu.Unlock()
	}
	if len(cands) <= keep {
		return 0
	}
	sortAppIDsBySeq(cands)
	victims := cands[:len(cands)-keep]
	for _, id := range victims {
		ss.Forget(id)
	}
	ss.updateAppGauges()
	return len(victims)
}

// updateAppGauges refreshes the in-flight / completed gauges from a
// cross-shard count. It does not run per absorb (it would serialize the
// shards); Quiesce and the eviction entry points refresh it, which is
// where long-running feeds sit.
func (ss *ShardedStream) updateAppGauges() {
	if ss.met == nil {
		return
	}
	apps, done := 0, 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		apps += len(sh.st.apps)
		done += sh.st.nCompleted
		sh.stMu.Unlock()
	}
	ss.met.completed.Set(int64(done))
	ss.met.inflight.Set(int64(apps - done))
}
