package core

// Trace export: renders a mined application trace as Chrome trace-event
// JSON (Perfetto-compatible), one track per container and one span per
// delay component of §III-C. The span vocabulary and the renderer are
// shared with internal/sim's ground-truth Recorder, so a simulator run
// exported from the true event timeline and the same run exported from
// SDchecker's mined graph are diffable track-by-track — the
// repro-fidelity check the paper could not do on a real cluster.
//
// This is core's only dependency on internal/sim, and it uses nothing of
// the simulation engine: only the span/renderer types, with timestamps
// carried as epoch milliseconds exactly as mined from the logs.

import "repro/internal/sim"

// appSpan emits one app-level or container-level span when both endpoints
// were observed (non-zero) and ordered.
func appendSpan(out []sim.TraceSpan, process, thread, name string, start, end int64) []sim.TraceSpan {
	if start == 0 || end == 0 || end < start {
		return out
	}
	return append(out, sim.TraceSpan{
		Process: process, Thread: thread, Name: name,
		Start: sim.Time(start), End: sim.Time(end),
	})
}

// AppSpans converts one mined application trace into trace spans, one per
// observed delay component. Timestamps are epoch milliseconds (render
// with epochMS = 0). Components whose defining messages were not mined
// produce no span, mirroring Decompose's Missing semantics.
func AppSpans(a *AppTrace) []sim.TraceSpan {
	proc := a.ID.String()
	var out []sim.TraceSpan

	// Application-level: AM delay on the app track.
	out = appendSpan(out, proc, sim.AppTrack, sim.SpanAM, a.Submitted, a.Registered)

	// Driver-side spans live on the AM container's track.
	if am := a.AMContainer(); am != nil {
		amTrack := am.ID.String()
		out = appendSpan(out, proc, amTrack, sim.SpanDriver, am.FirstLog, a.DriverRegister)
		out = appendSpan(out, proc, amTrack, sim.SpanAllocation, a.StartAllo, a.EndAllo)
	}

	for _, c := range a.Containers {
		track := c.ID.String()
		out = appendSpan(out, proc, track, sim.SpanAcquisition, c.Allocated, c.Acquired)
		out = appendSpan(out, proc, track, sim.SpanLocalization, c.Localizing, c.Scheduled)
		out = appendSpan(out, proc, track, sim.SpanLaunching, c.Scheduled, c.Running)
		if !c.IsAM() {
			out = appendSpan(out, proc, track, sim.SpanExecutor, c.FirstLog, c.FirstTask)
		}
	}
	return out
}

// ChromeTrace renders one application's mined scheduling graph as a
// Chrome trace-event JSON document.
func ChromeTrace(a *AppTrace) ([]byte, error) {
	return sim.ChromeTrace(AppSpans(a), 0)
}

// ChromeTrace renders every application of a report into one trace
// document (one process per application).
func (r *Report) ChromeTrace() ([]byte, error) {
	var spans []sim.TraceSpan
	for _, a := range r.Apps {
		spans = append(spans, AppSpans(a)...)
	}
	return sim.ChromeTrace(spans, 0)
}
