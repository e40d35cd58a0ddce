package share

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refResource is the processor-sharing algorithm as it stood when jobs
// lived in a map: every start, cancel and completion settles all jobs,
// recomputes every rate into a fresh pending list, cancels the completion
// timer and schedules a new one, and sorts simultaneous finishers by
// admission number. It visits jobs in admission order, so its float sums
// are reproducible and Resource must match it bit for bit.
type refResource struct {
	eng        *sim.Engine
	capacity   float64
	jobs       map[*refJob]struct{}
	settled    sim.Time
	next       *sim.Event
	degrade    func(active int) float64
	busyUnitMs float64
	seq        uint64
}

type refJob struct {
	demand    float64
	remaining float64
	rate      float64
	done      func(at sim.Time)
	seq       uint64
}

func newRefResource(eng *sim.Engine, capacity float64) *refResource {
	return &refResource{eng: eng, capacity: capacity, jobs: map[*refJob]struct{}{}, settled: eng.Now()}
}

// ordered returns the active jobs in admission order.
func (r *refResource) ordered() []*refJob {
	out := make([]*refJob, 0, len(r.jobs))
	for j := range r.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

func (r *refResource) start(work, demand float64, done func(at sim.Time)) *refJob {
	r.settle()
	j := &refJob{demand: demand, remaining: work, done: done, seq: r.seq}
	r.seq++
	r.jobs[j] = struct{}{}
	r.reschedule()
	return j
}

func (r *refResource) cancel(j *refJob) {
	if _, ok := r.jobs[j]; !ok {
		return
	}
	r.settle()
	delete(r.jobs, j)
	r.reschedule()
}

func (r *refResource) busy() float64 {
	r.settle()
	return r.busyUnitMs
}

func (r *refResource) remaining(j *refJob) float64 {
	r.settle()
	return j.remaining
}

func (r *refResource) settle() {
	now := r.eng.Now()
	dt := float64(now - r.settled)
	if dt <= 0 {
		r.settled = now
		return
	}
	sec := dt / 1000.0
	for _, j := range r.ordered() {
		consumed := j.rate * sec
		if consumed > j.remaining {
			consumed = j.remaining
		}
		j.remaining -= consumed
		r.busyUnitMs += j.rate * dt
	}
	r.settled = now
}

func (r *refResource) reschedule() {
	if r.next != nil {
		r.eng.Cancel(r.next)
		r.next = nil
	}
	if len(r.jobs) == 0 {
		return
	}
	r.assignRates()
	var (
		soonest     sim.Duration = -1
		anyFinished bool
	)
	for _, j := range r.ordered() {
		if j.remaining <= epsilon {
			anyFinished = true
			continue
		}
		if j.rate <= 0 {
			continue
		}
		ms := int64(j.remaining / j.rate * 1000.0)
		if float64(ms)*j.rate/1000.0 < j.remaining-epsilon {
			ms++
		}
		if ms < 1 {
			ms = 1
		}
		if soonest < 0 || ms < soonest {
			soonest = ms
		}
	}
	if anyFinished {
		soonest = 0
	}
	if soonest < 0 {
		return
	}
	r.next = r.eng.After(soonest, r.onTimer)
}

func (r *refResource) onTimer() {
	r.next = nil
	r.settle()
	var finished []*refJob
	for j := range r.jobs {
		if j.remaining <= epsilon {
			finished = append(finished, j)
		}
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].seq < finished[b].seq })
	for _, j := range finished {
		delete(r.jobs, j)
	}
	r.reschedule()
	now := r.eng.Now()
	for _, j := range finished {
		j.rate = 0
		if j.done != nil {
			j.done(now)
		}
	}
}

func (r *refResource) assignRates() {
	pending := make([]*refJob, 0, len(r.jobs))
	var sum float64
	for _, j := range r.ordered() {
		j.rate = 0
		if j.remaining > epsilon {
			pending = append(pending, j)
			sum += j.demand
		}
	}
	if len(pending) == 0 {
		return
	}
	cap := r.capacity
	if r.degrade != nil {
		cap *= r.degrade(len(pending))
	}
	scale := 1.0
	if sum > cap {
		scale = cap / sum
	}
	for _, j := range pending {
		j.rate = j.demand * scale
	}
}

// completion is one done callback: which job, and when.
type completion struct {
	id int
	at sim.Time
}

// shareRig drives a Resource and a refResource, each on its own engine,
// through the same operations.
type shareRig struct {
	t           *testing.T
	eng, refEng *sim.Engine
	res         *Resource
	ref         *refResource
	jobs        []*Job
	refJobs     []*refJob
	got, want   []completion
}

func newShareRig(t *testing.T, capacity float64, degrade bool) *shareRig {
	g := &shareRig{t: t, eng: sim.NewEngine(), refEng: sim.NewEngine()}
	g.res = NewResource(g.eng, "r", capacity)
	g.ref = newRefResource(g.refEng, capacity)
	if degrade {
		g.res.Degrade = NewSeekDegrade(0.25, 0.4)
		g.ref.degrade = NewSeekDegrade(0.25, 0.4)
	}
	return g
}

// start admits the next job on both sides.
func (g *shareRig) start(work, demand float64) {
	g.startRes(work, demand)
	g.startRef(work, demand)
}

// startRes and startRef admit one job on one side; its id is its index
// in that side's job list. Every third job's done callback admits a
// follow-up job, so completions also start work re-entrantly.
func (g *shareRig) startRes(work, demand float64) {
	id := len(g.jobs)
	g.jobs = append(g.jobs, g.res.Start(work, demand, func(at sim.Time) {
		g.got = append(g.got, completion{id, at})
		if id%3 == 2 {
			g.startRes(float64(id%7), float64(1+id%3))
		}
	}))
}

func (g *shareRig) startRef(work, demand float64) {
	id := len(g.refJobs)
	g.refJobs = append(g.refJobs, g.ref.start(work, demand, func(at sim.Time) {
		g.want = append(g.want, completion{id, at})
		if id%3 == 2 {
			g.startRef(float64(id%7), float64(1+id%3))
		}
	}))
}

// check compares everything observable on the two sides.
func (g *shareRig) check(step int) {
	t := g.t
	t.Helper()
	if g.eng.Now() != g.refEng.Now() {
		t.Fatalf("step %d: now %d, reference %d", step, g.eng.Now(), g.refEng.Now())
	}
	if len(g.got) != len(g.want) || len(g.jobs) != len(g.refJobs) {
		t.Fatalf("step %d: %d completions of %d jobs, reference %d of %d", step, len(g.got), len(g.jobs), len(g.want), len(g.refJobs))
	}
	for i := range g.got {
		if g.got[i] != g.want[i] {
			t.Fatalf("step %d: completion %d is %+v, reference %+v", step, i, g.got[i], g.want[i])
		}
	}
	if g.res.Active() != len(g.ref.jobs) {
		t.Fatalf("step %d: %d active, reference %d", step, g.res.Active(), len(g.ref.jobs))
	}
	for i, j := range g.jobs {
		rj := g.refJobs[i]
		if math.Float64bits(j.Rate()) != math.Float64bits(rj.rate) {
			t.Fatalf("step %d: job %d rate %v, reference %v", step, i, j.Rate(), rj.rate)
		}
		if got, want := j.Remaining(), g.ref.remaining(rj); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: job %d remaining %v, reference %v", step, i, got, want)
		}
	}
	if got, want := g.res.BusyUnitMillis(), g.ref.busy(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: busy %v, reference %v", step, got, want)
	}
	if got, want := g.eng.PendingTimes(), g.refEng.PendingTimes(); !slices.Equal(got, want) {
		t.Fatalf("step %d: pending %v, reference %v", step, got, want)
	}
}

// run interprets ops three bytes at a time: start a job with integer
// work and demand, cancel a job (finished ones included), advance both
// clocks, or fire one event on each engine.
func (g *shareRig) run(ops []byte) {
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		switch ops[i] % 4 {
		case 0:
			// Small works tie often, so jobs finish at the same instant.
			work := float64(a)
			if a&0x80 != 0 {
				work = float64(a % 8)
			}
			g.start(work, float64(1+b%16))
		case 1:
			if len(g.jobs) > 0 {
				k := int(a) % len(g.jobs)
				g.res.Cancel(g.jobs[k])
				g.ref.cancel(g.refJobs[k])
			}
		case 2:
			d := sim.Duration(a) * sim.Duration(1+b%8)
			g.eng.RunUntil(g.eng.Now() + sim.Time(d))
			g.refEng.RunUntil(g.refEng.Now() + sim.Time(d))
		case 3:
			if g.eng.Step() != g.refEng.Step() {
				g.t.Fatalf("op %d: Step disagrees with the reference", i/3)
			}
		}
		g.check(i / 3)
	}
	g.eng.Run()
	g.refEng.Run()
	g.check(len(ops) / 3)
}

// FuzzResourceVsReference checks Resource against refResource: the same
// completion instants and callback order, and bit-equal rates,
// remaining work and busy time after every operation. Integer work and
// demands keep the demand sums exact, so any difference is the
// algorithm's, not rounding's.
func FuzzResourceVsReference(f *testing.F) {
	f.Add(byte(10), []byte{0, 50, 3, 0, 20, 1, 2, 100, 0, 1, 0, 0, 2, 255, 7})
	f.Add(byte(4), []byte{0, 0x84, 0, 0, 0x84, 0, 0, 0x85, 1, 2, 255, 7})
	f.Add(byte(0x85), []byte{0, 0, 1, 0, 9, 2, 3, 0, 0, 0, 40, 15, 3, 0, 0, 1, 1, 0})
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		ops := make([]byte, 3*(20+rnd.Intn(80)))
		rnd.Read(ops)
		f.Add(byte(rnd.Intn(256)), ops)
	}
	f.Fuzz(func(t *testing.T, shape byte, ops []byte) {
		g := newShareRig(t, float64(1+shape%32), shape&0x80 != 0)
		g.run(ops)
	})
}
