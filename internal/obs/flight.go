package obs

import (
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Flight event kinds: the closed vocabulary of the flight recorder.
// Everything an operator needs to reconstruct "what was the pipeline
// doing just before the anomaly" is one of these.
const (
	KindStage      = "stage"            // one stage batch completed
	KindForward    = "forward"          // events forwarded across shards
	KindHook       = "hook_fired"       // completion hook delivered one app
	KindEvict      = "evict"            // one application evicted
	KindWarnBurst  = "warn_burst"       // burst of unmatched/dropped lines
	KindStall      = "watchdog_stall"   // watchdog flipped to stalled
	KindRecover    = "watchdog_recover" // watchdog recovered
	KindSnapshot   = "flight_snapshot"  // automatic dump taken on anomaly
	KindSLOFire    = "slo_fire"         // SLO rule transitioned to firing
	KindSLOResolve = "slo_resolve"      // SLO rule resolved back to ok
)

// Event is one flight-recorder entry. Shard is the worker index or -1
// when the event is not shard-scoped. Fields are fixed-size except
// Detail, which producers keep short (an app ID, a reason).
type Event struct {
	Seq    uint64 `json:"seq"`
	AtMS   int64  `json:"at_ms"`
	Kind   string `json:"kind"`
	Stage  string `json:"stage,omitempty"`
	Shard  int    `json:"shard"`
	N      int64  `json:"n,omitempty"`
	DurUS  int64  `json:"dur_us,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (e Event) seqNo() uint64 { return e.Seq }

// stageRec is one stage batch: its KindStage event, which ends at AtMS,
// and the batch's start.
type stageRec struct {
	Event
	startMS int64
}

// flightSize is the capacity of each ring. Stage batches have a ring of
// their own, so the hundreds a wake-driven serve loop records each
// second cannot overwrite the rare per-app events.
const flightSize = 4096

// ring is a preallocated buffer that overwrites its oldest entry when
// full. n counts every entry ever pushed; sequence numbers rise in push
// order.
type ring[T interface{ seqNo() uint64 }] struct {
	buf []T
	n   uint64
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else if cap(r.buf) > 0 {
		r.buf[r.n%uint64(cap(r.buf))] = v
	}
	r.n++
}

// at returns the i-th oldest entry held.
func (r *ring[T]) at(i int) T {
	if r.n > uint64(len(r.buf)) {
		i = int((r.n + uint64(i)) % uint64(len(r.buf)))
	}
	return r.buf[i]
}

// from returns the position of the oldest entry held whose sequence
// number is at least seq.
func (r *ring[T]) from(seq uint64) int {
	return sort.Search(len(r.buf), func(i int) bool { return r.at(i).seqNo() >= seq })
}

// Flight is the pipeline's only store of its own records: one lock and
// one sequence counter over a stage ring, one record per stage batch,
// and an event ring for every other kind. Recording allocates nothing
// beyond the Detail strings callers build. All methods are nil-safe.
type Flight struct {
	mu      sync.Mutex
	next    uint64 // sequence number of the next record, of either kind
	stages  ring[stageRec]
	events  ring[Event]
	drained uint64  // stages.n at the last DrainSelf
	self    []Event // DrainSelf's result, reused

	recorded    *metrics.Counter // obs_flight_events_total
	selfDropped *metrics.Counter // obs_self_observations_dropped_total
}

func newFlight(reg *metrics.Registry) *Flight {
	return &Flight{
		stages:      ring[stageRec]{buf: make([]stageRec, 0, flightSize)},
		events:      ring[Event]{buf: make([]Event, 0, flightSize)},
		recorded:    reg.Counter("obs_flight_events_total"),
		selfDropped: reg.Counter("obs_self_observations_dropped_total"),
	}
}

// Record appends one event to the event ring and returns its assigned
// sequence number (0 on a nil recorder).
func (f *Flight) Record(e Event) uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e.Seq = f.next
	f.next++
	f.events.push(e)
	f.recorded.Inc()
	return e.Seq
}

func (f *Flight) recordStage(r stageRec) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r.Seq = f.next
	f.next++
	f.stages.push(r)
	f.recorded.Inc()
}

// merge appends to dst the stage records at positions [s, sEnd) and the
// events at [e, eEnd), in sequence order. The caller holds mu.
func (f *Flight) merge(dst []Event, s, sEnd, e, eEnd int) []Event {
	for s < sEnd || e < eEnd {
		if e == eEnd || (s < sEnd && f.stages.at(s).Seq < f.events.at(e).Seq) {
			dst = append(dst, f.stages.at(s).Event)
			s++
		} else {
			dst = append(dst, f.events.at(e))
			e++
		}
	}
	return dst
}

// HookContext returns, for each of apps whose hook_fired event the
// event ring still holds, the records whose sequence numbers lie within
// radius of the app's newest hook event, oldest first: what the
// pipeline was doing when the app completed. Neither ring is copied.
func (f *Flight) HookContext(apps []string, radius uint64) map[string][]Event {
	if f == nil {
		return nil
	}
	want := make(map[string]bool, len(apps))
	for _, a := range apps {
		want[a] = true
	}
	out := make(map[string][]Event, len(want))
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.events.buf) - 1; i >= 0 && len(want) > 0; i-- {
		e := f.events.at(i)
		if e.Kind != KindHook || !want[e.Detail] {
			continue
		}
		delete(want, e.Detail)
		lo, hi := e.Seq-min(e.Seq, radius), e.Seq+radius+1
		out[e.Detail] = f.merge(make([]Event, 0, 2*radius+1), f.stages.from(lo), f.stages.from(hi), f.events.from(lo), f.events.from(hi))
	}
	return out
}

// Dump is a point-in-time snapshot of the recorder: the records still
// held, oldest first, plus how many were ever recorded (Recorded -
// len(Events) have been overwritten). Cap is the two rings' capacities
// added together.
type Dump struct {
	Cap      int     `json:"cap"`
	Recorded uint64  `json:"recorded"`
	Events   []Event `json:"events"`
}

// Dump snapshots the recorder, merging both rings by sequence number.
// The result is deterministic for a deterministic record sequence.
func (f *Flight) Dump() Dump {
	if f == nil {
		return Dump{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ns, ne := len(f.stages.buf), len(f.events.buf)
	return Dump{
		Cap:      cap(f.stages.buf) + cap(f.events.buf),
		Recorded: f.next,
		Events:   f.merge(make([]Event, 0, ns+ne), 0, ns, 0, ne),
	}
}

// Recorded returns how many records of either kind were ever recorded.
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// JSON renders the dump as stable, indented JSON (the /debug/flight
// body): identical event sequences yield identical bytes.
func (d Dump) JSON() []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		// Dump contains only plain fields; this cannot happen.
		return []byte("{}")
	}
	return append(b, '\n')
}
