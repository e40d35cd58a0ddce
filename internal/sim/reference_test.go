package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the engine's contract written as plainly as possible: a
// list of pending events, the next one found by a scan for the least
// (time, sequence). Rescheduling is a cancel followed by a fresh
// schedule, which takes the next sequence number.
type refQueue struct {
	now     Time
	seq     uint64
	pending []*refEvent
}

type refEvent struct {
	id  int
	at  Time
	seq uint64
}

func (q *refQueue) at(id int, t Time) *refEvent {
	ev := &refEvent{id: id, at: t, seq: q.seq}
	q.seq++
	q.pending = append(q.pending, ev)
	return ev
}

func (q *refQueue) cancel(ev *refEvent) {
	q.pending = slices.DeleteFunc(q.pending, func(p *refEvent) bool { return p == ev })
}

func (q *refQueue) reschedule(ev *refEvent, t Time) {
	q.cancel(ev)
	ev.at, ev.seq = t, q.seq
	q.seq++
	q.pending = append(q.pending, ev)
}

// next removes and returns the least pending event, or nil.
func (q *refQueue) next() *refEvent {
	if len(q.pending) == 0 {
		return nil
	}
	best := 0
	for i, ev := range q.pending {
		b := q.pending[best]
		if ev.at < b.at || ev.at == b.at && ev.seq < b.seq {
			best = i
		}
	}
	ev := q.pending[best]
	q.pending = slices.Delete(q.pending, best, best+1)
	q.now = ev.at
	return ev
}

func (q *refQueue) times() []Time {
	out := make([]Time, len(q.pending))
	for i, ev := range q.pending {
		out[i] = ev.at
	}
	slices.Sort(out)
	return out
}

// TestEngineMatchesReference drives Engine and refQueue through the same
// random At, Cancel, Reschedule, Step and RunUntil calls, with callbacks
// that schedule, cancel and reschedule re-entrantly, and compares the
// firing order, the clock, Pending, NextAt and PendingTimes after every
// call. Reschedule is exercised on pending, fired and cancelled events.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		ref := &refQueue{}
		var (
			evs    []*Event
			refEvs []*refEvent
			got    []int
			want   []int
		)
		// Callbacks pick their follow-up from the event id alone, so the
		// engine and the reference react identically.
		var schedule func(t Time) int
		fire := func(id int) {
			got = append(got, id)
			switch id % 5 {
			case 0:
				schedule(eng.Now() + Time(id%3))
			case 1:
				if k := id / 2; k < len(evs) {
					eng.Reschedule(evs[k], eng.Now()+Time(id%4))
				}
			case 2:
				if k := id / 3; k < len(evs) {
					eng.Cancel(evs[k])
				}
			}
		}
		refFire := func(id int) {
			want = append(want, id)
			switch id % 5 {
			case 0:
				refEvs = append(refEvs, ref.at(len(refEvs), ref.now+Time(id%3)))
			case 1:
				if k := id / 2; k < len(refEvs) {
					ref.reschedule(refEvs[k], ref.now+Time(id%4))
				}
			case 2:
				if k := id / 3; k < len(refEvs) {
					ref.cancel(refEvs[k])
				}
			}
		}
		schedule = func(t Time) int {
			id := len(evs)
			evs = append(evs, eng.At(t, func() { fire(id) }))
			return id
		}
		refStep := func() bool {
			ev := ref.next()
			if ev == nil {
				return false
			}
			refFire(ev.id)
			return true
		}
		for op := 0; op < 400; op++ {
			switch k := rnd.Intn(10); {
			case k < 4:
				at := eng.Now() + Time(rnd.Intn(20))
				refEvs = append(refEvs, ref.at(schedule(at), at))
			case k < 5 && len(evs) > 0:
				i := rnd.Intn(len(evs))
				eng.Cancel(evs[i])
				ref.cancel(refEvs[i])
			case k < 7 && len(evs) > 0:
				i := rnd.Intn(len(evs))
				at := eng.Now() + Time(rnd.Intn(20))
				eng.Reschedule(evs[i], at)
				ref.reschedule(refEvs[i], at)
			case k < 9:
				if eng.Step() != refStep() {
					t.Fatalf("seed %d op %d: Step disagrees with the reference", seed, op)
				}
			default:
				deadline := eng.Now() + Time(rnd.Intn(15))
				eng.RunUntil(deadline)
				for len(ref.pending) > 0 && slices.Min(ref.times()) <= deadline {
					refStep()
				}
				if len(ref.pending) > 0 {
					ref.now = deadline
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: fired %v, reference %v", seed, op, got, want)
			}
			if eng.Now() != ref.now || eng.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: now %d pending %d, reference %d and %d",
					seed, op, eng.Now(), eng.Pending(), ref.now, len(ref.pending))
			}
			if !slices.Equal(eng.PendingTimes(), ref.times()) {
				t.Fatalf("seed %d op %d: pending times %v, reference %v", seed, op, eng.PendingTimes(), ref.times())
			}
			wantNext := MaxTime
			if len(ref.pending) > 0 {
				wantNext = slices.Min(ref.times())
			}
			if eng.NextAt() != wantNext {
				t.Fatalf("seed %d op %d: NextAt %d, reference %d", seed, op, eng.NextAt(), wantNext)
			}
		}
		if eng.Fired() != uint64(len(want)) {
			t.Fatalf("seed %d: Fired %d, reference fired %d", seed, eng.Fired(), len(want))
		}
	}
}
