package sim

// Ticker fires a callback on a fixed period, with an optional phase offset
// so that many periodic components (e.g. NodeManager heartbeats) do not
// fire in lockstep. It mirrors the heartbeat timers inside YARN daemons.
type Ticker struct {
	eng    *Engine
	period Duration
	fn     func()
	ev     *Event
	live   bool
}

// NewTicker schedules fn every period milliseconds, first firing at
// now+offset. It panics on a non-positive period.
func NewTicker(eng *Engine, period, offset Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if offset < 0 {
		offset = 0
	}
	t := &Ticker{eng: eng, period: period, fn: fn, live: true}
	t.ev = eng.After(offset, t.tick)
	return t
}

func (t *Ticker) tick() {
	if !t.live {
		return
	}
	t.fn()
	if t.live { // fn may have stopped the ticker
		t.ev = t.eng.After(t.period, t.tick)
	}
}

// Stop cancels future ticks. Safe to call repeatedly.
func (t *Ticker) Stop() {
	if !t.live {
		return
	}
	t.live = false
	t.eng.Cancel(t.ev)
}
