package obs

import (
	"strconv"
	"sync"

	"repro/internal/metrics"
)

// Watchdog is the pipeline stall detector. The serve loop brackets each
// ingestion pass with ScanBegin/ScanEnd and periodically reports
// per-shard progress; an independent checker goroutine calls Check. A
// stall is either a scan that has not made progress for stallAfterMS
// (stuck mid-scan or loop dead) or a shard whose queue is non-empty
// while its count of absorbed lines stands still.
//
// On the healthy→stalled edge the watchdog records the stall in the
// flight recorder, snapshots it exactly once per stall episode, and
// delivers the snapshot through the registered hook (the server flips
// /healthz to degraded and keeps the dump). Recovery re-arms the
// snapshot for the next episode.
type Watchdog struct {
	pl           *Pipeline
	stallAfterMS int64

	mu             sync.Mutex
	started        bool  // saw at least one ScanBegin
	scanStartMS    int64 // nonzero while a scan is in flight
	lastProgressMS int64
	shardProcessed []int64
	shardStuckMS   []int64 // 0 = not currently stuck
	shardStuck     int     // index of a stuck shard, -1 otherwise
	stalled        bool
	reason         string
	snapped        bool // snapshot already taken this episode
	lastDump       []byte
	lastSnapSeq    uint64 // flight seq of the last flight_snapshot event
	onSnapshot     func([]byte)

	stalledG  *metrics.Gauge   // obs_watchdog_stalled
	checks    *metrics.Counter // obs_watchdog_checks_total
	snapshots *metrics.Counter // obs_flight_snapshots_total
	stalls    *metrics.Counter // obs_watchdog_stalls_total
}

// NewWatchdog builds a watchdog over pl that declares a stall after
// stallAfterMS without progress. reg may be nil.
func NewWatchdog(pl *Pipeline, reg *metrics.Registry, stallAfterMS int64) *Watchdog {
	return &Watchdog{
		pl:           pl,
		stallAfterMS: stallAfterMS,
		shardStuck:   -1,
		stalledG:     reg.Gauge("obs_watchdog_stalled"),
		checks:       reg.Counter("obs_watchdog_checks_total"),
		snapshots:    reg.Counter("obs_flight_snapshots_total"),
		stalls:       reg.Counter("obs_watchdog_stalls_total"),
	}
}

// OnSnapshot registers the hook receiving the automatic flight dump,
// called at most once per stall episode. The hook runs on the checker
// goroutine under the watchdog's lock and must not call back in.
// Install it before the checker starts.
func (w *Watchdog) OnSnapshot(fn func([]byte)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.onSnapshot = fn
	w.mu.Unlock()
}

// ScanBegin marks the start of one serve-loop ingestion pass.
func (w *Watchdog) ScanBegin(nowMS int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.started = true
	w.scanStartMS = nowMS
	w.lastProgressMS = nowMS
	w.mu.Unlock()
}

// ScanEnd marks the end of the pass started by ScanBegin.
func (w *Watchdog) ScanEnd(nowMS int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.scanStartMS = 0
	w.lastProgressMS = nowMS
	w.mu.Unlock()
}

// ObserveShards folds one per-shard progress sample in: queued[i] is
// shard i's queue depth, processed[i] the cumulative count of lines it
// has absorbed. A shard with work queued whose count stands still
// across samples spanning stallAfterMS is stuck.
func (w *Watchdog) ObserveShards(queued []int, processed []int64, nowMS int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if len(w.shardProcessed) != len(processed) {
		w.shardProcessed = make([]int64, len(processed))
		copy(w.shardProcessed, processed)
		w.shardStuckMS = make([]int64, len(processed))
	}
	w.shardStuck = -1
	for i := range processed {
		switch {
		case i < len(queued) && queued[i] > 0 && processed[i] == w.shardProcessed[i]:
			if w.shardStuckMS[i] == 0 {
				w.shardStuckMS[i] = nowMS
			} else if nowMS-w.shardStuckMS[i] > w.stallAfterMS && w.shardStuck < 0 {
				w.shardStuck = i
			}
		default:
			w.shardStuckMS[i] = 0
		}
		w.shardProcessed[i] = processed[i]
	}
	w.mu.Unlock()
}

// Check evaluates the stall conditions at nowMS and drives the
// healthy↔stalled transitions. It returns the current verdict.
func (w *Watchdog) Check(nowMS int64) (stalled bool, reason string) {
	if w == nil {
		return false, ""
	}
	w.checks.Inc()
	w.mu.Lock()
	defer w.mu.Unlock()
	reason = ""
	if w.started {
		if w.scanStartMS != 0 && nowMS-w.scanStartMS > w.stallAfterMS {
			reason = "scan in flight for " + strconv.FormatInt(nowMS-w.scanStartMS, 10) + "ms"
		} else if w.scanStartMS == 0 && nowMS-w.lastProgressMS > w.stallAfterMS {
			reason = "no scan for " + strconv.FormatInt(nowMS-w.lastProgressMS, 10) + "ms"
		}
	}
	if reason == "" && w.shardStuck >= 0 {
		reason = "shard " + strconv.Itoa(w.shardStuck) + " queue not draining"
	}

	switch {
	case reason != "" && !w.stalled:
		w.stalled, w.reason = true, reason
		w.stalledG.Set(1)
		w.stalls.Inc()
		w.pl.Flight().Record(Event{AtMS: nowMS, Kind: KindStall, Shard: -1, Detail: reason})
		if !w.snapped {
			w.snapped = true
			w.lastDump = w.pl.Flight().Dump().JSON()
			w.lastSnapSeq = w.pl.Flight().Record(Event{AtMS: nowMS, Kind: KindSnapshot, Shard: -1, N: int64(len(w.lastDump))})
			w.snapshots.Inc()
			if h := w.onSnapshot; h != nil {
				h(w.lastDump)
			}
		}
	case reason == "" && w.stalled:
		w.stalled, w.reason = false, ""
		w.snapped = false
		w.stalledG.Set(0)
		w.pl.Flight().Record(Event{AtMS: nowMS, Kind: KindRecover, Shard: -1})
	}
	return w.stalled, w.reason
}

// Stalled returns the current verdict and its reason.
func (w *Watchdog) Stalled() (bool, string) {
	if w == nil {
		return false, ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalled, w.reason
}

// Snapshots returns how many automatic flight snapshots were taken.
func (w *Watchdog) Snapshots() int64 {
	if w == nil {
		return 0
	}
	return w.snapshots.Value()
}

// Episodes returns how many distinct stall episodes the watchdog has
// declared (the healthy→stalled edge count).
func (w *Watchdog) Episodes() int64 {
	if w == nil {
		return 0
	}
	return w.stalls.Value()
}

// LastSnapshotSeq returns the flight-recorder sequence number of the
// most recent automatic snapshot event (0 when none was taken yet).
func (w *Watchdog) LastSnapshotSeq() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSnapSeq
}

// LastDump returns the most recent automatic flight snapshot (nil when
// none was taken yet).
func (w *Watchdog) LastDump() []byte {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastDump
}
