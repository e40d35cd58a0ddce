package core

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// The JSON export is the machine-readable projection of every
// application trace — the format for downstream tooling (plotting,
// dashboards, cross-run diffing). All timestamps are epoch milliseconds;
// -1 marks a missing component. The encoder writes each key with its
// two-space indentation as a literal, so the output is byte for byte
// what encoding/json's MarshalIndent(v, "", "  ") prints for the
// projection json_test.go keeps as the oracle: name, type, queue,
// anomalies, critical_path and every container field but id are left
// out when empty or zero, and containers is null for an app with none.

// JSON renders the report's per-application traces, decompositions, and
// critical paths as indented JSON.
func (r *Report) JSON() (string, error) {
	var sb strings.Builder
	err := r.WriteJSON(&sb)
	return sb.String(), err
}

// WriteJSON writes what JSON returns to w, one application per Write,
// so the whole document is never held in memory. The only error it
// returns is w's.
func (r *Report) WriteJSON(w io.Writer) error {
	if len(r.Apps) == 0 {
		_, err := io.WriteString(w, "[]")
		return err
	}
	b := make([]byte, 0, 8<<10)
	for i, a := range r.Apps {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = appendAppJSON(b, a)
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	_, err := io.WriteString(w, "\n]")
	return err
}

// noDecomp stands in for an application with no decomposition.
var noDecomp Decomposition

func appendAppJSON(b []byte, a *AppTrace) []byte {
	b = appendJSONString(append(b, "\n  {\n    \"app\": "...), a.ID.String())
	b = appendOptString(b, ",\n    \"name\": ", a.Name)
	b = appendOptString(b, ",\n    \"type\": ", a.AppType)
	b = appendOptString(b, ",\n    \"queue\": ", a.Queue)
	b = appendInt(b, ",\n    \"submitted_ms\": ", a.Submitted)

	d := a.Decomp
	if d == nil {
		d = &noDecomp
	}
	b = appendInt(b, ",\n    \"decomposition\": {\n      \"total_ms\": ", d.Total)
	b = appendInt(b, ",\n      \"am_ms\": ", d.AM)
	b = appendInt(b, ",\n      \"in_ms\": ", d.In)
	b = appendInt(b, ",\n      \"out_ms\": ", d.Out)
	b = appendInt(b, ",\n      \"driver_ms\": ", d.Driver)
	b = appendInt(b, ",\n      \"executor_ms\": ", d.Executor)
	b = appendInt(b, ",\n      \"alloc_ms\": ", d.Alloc)
	b = appendInt(b, ",\n      \"cf_ms\": ", d.Cf)
	b = appendInt(b, ",\n      \"cl_ms\": ", d.Cl)
	b = appendInt(b, ",\n      \"job_ms\": ", d.JobRuntime)
	b = strconv.AppendBool(append(b, ",\n      \"complete\": "...), d.Complete)
	if len(d.Anomalies) > 0 {
		b = append(b, ",\n      \"anomalies\": ["...)
		for i, s := range d.Anomalies {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, "\n        "...), s)
		}
		b = append(b, "\n      ]"...)
	}
	b = append(b, "\n    }"...)

	if path := CriticalPath(a); len(path) > 0 {
		b = append(b, ",\n    \"critical_path\": ["...)
		for i, s := range path {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, "\n      {\n        \"label\": "...), s.Label)
			b = append(appendInt(b, ",\n        \"ms\": ", s.Duration()), "\n      }"...)
		}
		b = append(b, "\n    ]"...)
	}

	if len(a.Containers) == 0 {
		return append(b, ",\n    \"containers\": null\n  }"...)
	}
	b = append(b, ",\n    \"containers\": ["...)
	for i, c := range a.Containers {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(append(b, "\n      {\n        \"id\": "...), c.idString())
		b = appendOptString(b, ",\n        \"instance\": ", string(c.Instance))
		b = appendOptString(b, ",\n        \"node\": ", c.Node)
		b = appendOptInt(b, ",\n        \"allocated_ms\": ", c.Allocated)
		b = appendOptInt(b, ",\n        \"acquired_ms\": ", c.Acquired)
		b = appendOptInt(b, ",\n        \"localizing_ms\": ", c.Localizing)
		b = appendOptInt(b, ",\n        \"scheduled_ms\": ", c.Scheduled)
		b = appendOptInt(b, ",\n        \"running_ms\": ", c.Running)
		b = appendOptInt(b, ",\n        \"first_log_ms\": ", c.FirstLog)
		b = appendOptInt(b, ",\n        \"first_task_ms\": ", c.FirstTask)
		b = appendOptInt(b, ",\n        \"exited_ms\": ", c.Exited)
		b = appendOptInt(b, ",\n        \"released_ms\": ", c.Released)
		b = appendOptInt(b, ",\n        \"launch_invoked_ms\": ", c.LaunchInvoked)
		b = appendOptInt(b, ",\n        \"lost_ms\": ", c.Lost)
		b = append(b, "\n      }"...)
	}
	return append(b, "\n    ]\n  }"...)
}

// appendInt appends key, which holds the separator, indentation and
// quoted name, then v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendOptInt is appendInt for an omitempty field: zero appends nothing.
func appendOptInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

// appendOptString appends key and s quoted, unless s is empty.
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

// appendJSONString appends s as encoding/json quotes it. A string of
// printable ASCII without '"', '\\' or the HTML-escaped '<', '>' and '&'
// is copied between quotes; any other goes through json.Marshal, which
// owns the escaping of control bytes, invalid UTF-8 and U+2028/U+2029.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
