// Package share implements a processor-sharing resource model for the
// simulated cluster. A Resource has a fixed capacity in abstract units per
// second (vcores for CPU, MB/s for disks and NICs); Jobs placed on it each
// declare a demand cap (the most they could consume alone) and a total
// amount of work. Capacity is shared in proportion to demand, capped at
// each job's demand — matching how the underlying hardware arbitrates
// (per-thread CPU slices, per-stream disk/NIC bandwidth).
//
// Contention-induced slowdown — the mechanism behind the paper's IO and CPU
// interference results — emerges directly: when the sum of demands exceeds
// capacity, every job's rate drops and its completion event is pushed out.
package share

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// epsilon below which remaining work counts as finished; guards against
// float drift producing zero-length reschedule loops.
const epsilon = 1e-6

// NewSeekDegrade returns a Degrade function for rotational storage:
// aggregate bandwidth falls as 1/(1+perStream*(n-1)) with the given
// floor, modelling seek overhead from interleaved streams.
func NewSeekDegrade(perStream, floor float64) func(int) float64 {
	return func(active int) float64 {
		if active <= 1 {
			return 1
		}
		f := 1 / (1 + perStream*float64(active-1))
		if f < floor {
			return floor
		}
		return f
	}
}

// Resource is a capacity shared by concurrent jobs.
type Resource struct {
	eng      *sim.Engine
	name     string
	capacity float64 // units per second
	jobs     []*Job  // active jobs in admission order
	settled  sim.Time
	// timer fires at the next completion. It is created on first use and
	// then moved with Engine.Reschedule; it is pending exactly when some
	// active job can still finish.
	timer *sim.Event

	// Degrade, when set, scales effective capacity by the number of
	// active jobs. Rotational disks lose aggregate bandwidth as
	// concurrent streams force seeks; NewSeekDegrade models that.
	Degrade func(active int) float64

	// busyUnitMs accumulates utilized capacity integrated over time
	// (unit-milliseconds), for utilization accounting.
	busyUnitMs float64
}

// Job is one consumer of a Resource. Create with (*Resource).Start.
type Job struct {
	res       *Resource
	demand    float64 // max units/s this job can use
	remaining float64 // units of work left
	rate      float64 // current allocation, units/s
	done      func(at sim.Time)
	started   sim.Time
}

// NewResource creates a resource with the given capacity in units/second.
func NewResource(eng *sim.Engine, name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("share: resource %q needs positive capacity, got %v", name, capacity))
	}
	return &Resource{
		eng:      eng,
		name:     name,
		capacity: capacity,
		settled:  eng.Now(),
	}
}

// Name returns the resource name (used in diagnostics).
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity in units/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Active returns the number of jobs currently sharing the resource.
func (r *Resource) Active() int { return len(r.jobs) }

// DemandSum returns the total declared demand of active jobs, in units/s.
// A value above Capacity means the resource is saturated.
func (r *Resource) DemandSum() float64 {
	var sum float64
	for _, j := range r.jobs {
		sum += j.demand
	}
	return sum
}

// Load returns DemandSum normalized by capacity (1.0 == saturated).
func (r *Resource) Load() float64 { return r.DemandSum() / r.capacity }

// BusyUnitMillis returns utilized capacity integrated over time so far,
// in unit-milliseconds, settled up to the current instant.
func (r *Resource) BusyUnitMillis() float64 {
	r.settle()
	return r.busyUnitMs
}

// Start places work units of demand-capped work on the resource. done is
// invoked (via the engine, at the completion instant) when the work
// drains. Zero work completes on the next event boundary. It returns the
// Job so callers may Cancel it.
func (r *Resource) Start(work, demand float64, done func(at sim.Time)) *Job {
	if work < 0 || demand <= 0 {
		panic(fmt.Sprintf("share: invalid job on %q: work=%v demand=%v", r.name, work, demand))
	}
	r.settle()
	j := &Job{res: r, demand: demand, remaining: work, done: done, started: r.eng.Now()}
	r.jobs = append(r.jobs, j)
	r.reschedule()
	return j
}

// Cancel removes a job before completion; its done callback never fires.
// Cancelling a finished or already-cancelled job is a no-op.
func (r *Resource) Cancel(j *Job) {
	i := slices.Index(r.jobs, j)
	if i < 0 {
		return
	}
	r.settle()
	r.jobs = slices.Delete(r.jobs, i, i+1)
	r.reschedule()
}

// Rate returns the job's current allocation in units/s (0 if finished).
func (j *Job) Rate() float64 { return j.rate }

// Resource returns the resource the job was started on.
func (j *Job) Resource() *Resource { return j.res }

// Remaining returns the job's remaining work, settled to now.
func (j *Job) Remaining() float64 {
	if j.res != nil {
		j.res.settle()
	}
	return j.remaining
}

// settle advances every job's remaining work from the last settle point to
// now at the rates fixed at that point. Every loop over the jobs runs in
// admission order, so float sums come out the same in every run.
func (r *Resource) settle() {
	now := r.eng.Now()
	dt := float64(now - r.settled)
	if dt <= 0 {
		r.settled = now
		return
	}
	sec := dt / 1000.0
	for _, j := range r.jobs {
		consumed := j.rate * sec
		if consumed > j.remaining {
			consumed = j.remaining
		}
		j.remaining -= consumed
		r.busyUnitMs += j.rate * dt
	}
	r.settled = now
}

// reschedule recomputes fair rates and moves the timer to the next
// completion, or cancels it when no active job can finish.
func (r *Resource) reschedule() {
	if len(r.jobs) == 0 {
		r.eng.Cancel(r.timer)
		return
	}
	r.assignRates()

	// Find soonest completion among jobs with positive rate.
	var soonest sim.Duration = -1
	for _, j := range r.jobs {
		if j.remaining <= epsilon {
			soonest = 0
			break
		}
		if j.rate <= 0 {
			continue
		}
		ms := int64(j.remaining / j.rate * 1000.0)
		if float64(ms)*j.rate/1000.0 < j.remaining-epsilon {
			ms++ // round up to the ms in which the job actually drains
		}
		if ms < 1 {
			ms = 1
		}
		if soonest < 0 || ms < soonest {
			soonest = ms
		}
	}
	switch {
	case soonest < 0:
		r.eng.Cancel(r.timer)
	case r.timer == nil:
		r.timer = r.eng.After(soonest, r.onTimer)
	default:
		r.eng.Reschedule(r.timer, r.eng.Now()+sim.Time(soonest))
	}
}

func (r *Resource) onTimer() {
	r.settle()
	// Finished jobs leave in admission order, which is also the order
	// their done callbacks run in when several finish at once.
	var buf [4]*Job
	finished := buf[:0]
	kept := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= epsilon {
			finished = append(finished, j)
		} else {
			kept = append(kept, j)
		}
	}
	clear(r.jobs[len(kept):])
	r.jobs = kept
	r.reschedule()
	now := r.eng.Now()
	for _, j := range finished {
		j.rate = 0
		if j.done != nil {
			j.done(now)
		}
	}
}

// assignRates shares capacity in proportion to demand, capped at each
// job's demand. This matches how the underlying hardware arbitrates: a
// CPU scheduler gives runnable threads (demand = thread count) equal
// slices, and disk/NIC bandwidth divides across streams. When total
// demand fits, everyone runs at full demand.
func (r *Resource) assignRates() {
	var (
		sum     float64
		pending int
	)
	for _, j := range r.jobs {
		j.rate = 0
		if j.remaining > epsilon {
			pending++
			sum += j.demand
		}
	}
	if pending == 0 {
		return
	}
	cap := r.capacity
	if r.Degrade != nil {
		cap *= r.Degrade(pending)
	}
	scale := 1.0
	if sum > cap {
		scale = cap / sum
	}
	for _, j := range r.jobs {
		if j.remaining > epsilon {
			j.rate = j.demand * scale
		}
	}
}
