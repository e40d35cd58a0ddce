package core

import (
	"encoding/json"
	"fmt"
)

// jsonApp is the machine-readable projection of one application trace —
// the export format for downstream tooling (plotting, dashboards,
// cross-run diffing). All timestamps are epoch milliseconds; -1 marks a
// missing component.
type jsonApp struct {
	App       string          `json:"app"`
	Name      string          `json:"name,omitempty"`
	Type      string          `json:"type,omitempty"`
	Queue     string          `json:"queue,omitempty"`
	Submitted int64           `json:"submitted_ms"`
	Decomp    jsonDecomp      `json:"decomposition"`
	Path      []jsonSegment   `json:"critical_path,omitempty"`
	Container []jsonContainer `json:"containers"`
}

type jsonDecomp struct {
	Total    int64 `json:"total_ms"`
	AM       int64 `json:"am_ms"`
	In       int64 `json:"in_ms"`
	Out      int64 `json:"out_ms"`
	Driver   int64 `json:"driver_ms"`
	Executor int64 `json:"executor_ms"`
	Alloc    int64 `json:"alloc_ms"`
	Cf       int64 `json:"cf_ms"`
	Cl       int64 `json:"cl_ms"`
	Job      int64 `json:"job_ms"`
	// Complete is false when headline observations are missing or
	// anomalies were found; the decomposition is then partial.
	Complete  bool     `json:"complete"`
	Anomalies []string `json:"anomalies,omitempty"`
}

type jsonSegment struct {
	Label string `json:"label"`
	MS    int64  `json:"ms"`
}

type jsonContainer struct {
	ID            string `json:"id"`
	Instance      string `json:"instance,omitempty"`
	Node          string `json:"node,omitempty"`
	Allocated     int64  `json:"allocated_ms,omitempty"`
	Acquired      int64  `json:"acquired_ms,omitempty"`
	Localizing    int64  `json:"localizing_ms,omitempty"`
	Scheduled     int64  `json:"scheduled_ms,omitempty"`
	Running       int64  `json:"running_ms,omitempty"`
	FirstLog      int64  `json:"first_log_ms,omitempty"`
	FirstTask     int64  `json:"first_task_ms,omitempty"`
	Exited        int64  `json:"exited_ms,omitempty"`
	Released      int64  `json:"released_ms,omitempty"`
	LaunchInvoked int64  `json:"launch_invoked_ms,omitempty"`
	Lost          int64  `json:"lost_ms,omitempty"`
}

// JSON renders the report's per-application traces, decompositions, and
// critical paths as indented JSON.
func (r *Report) JSON() (string, error) {
	out := make([]jsonApp, 0, len(r.Apps))
	for _, a := range r.Apps {
		ja := jsonApp{
			App:       a.ID.String(),
			Name:      a.Name,
			Type:      a.AppType,
			Queue:     a.Queue,
			Submitted: a.Submitted,
		}
		if d := a.Decomp; d != nil {
			ja.Decomp = jsonDecomp{
				Total: d.Total, AM: d.AM, In: d.In, Out: d.Out,
				Driver: d.Driver, Executor: d.Executor, Alloc: d.Alloc,
				Cf: d.Cf, Cl: d.Cl, Job: d.JobRuntime,
				Complete: d.Complete, Anomalies: d.Anomalies,
			}
		}
		for _, s := range CriticalPath(a) {
			ja.Path = append(ja.Path, jsonSegment{Label: s.Label, MS: s.Duration()})
		}
		for _, c := range a.Containers {
			ja.Container = append(ja.Container, jsonContainer{
				ID:            c.idString(),
				Instance:      string(c.Instance),
				Node:          c.Node,
				Allocated:     c.Allocated,
				Acquired:      c.Acquired,
				Localizing:    c.Localizing,
				Scheduled:     c.Scheduled,
				Running:       c.Running,
				FirstLog:      c.FirstLog,
				FirstTask:     c.FirstTask,
				Exited:        c.Exited,
				Released:      c.Released,
				LaunchInvoked: c.LaunchInvoked,
				Lost:          c.Lost,
			})
		}
		out = append(out, ja)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	return string(b), nil
}
