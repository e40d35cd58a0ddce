package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestJSONExportRoundTrips(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("apps=%d", len(decoded))
	}
	app := decoded[0]
	if app["app"] != "application_1499000000000_0001" {
		t.Fatalf("app id: %v", app["app"])
	}
	dec := app["decomposition"].(map[string]any)
	if dec["total_ms"].(float64) != 11900 {
		t.Fatalf("total: %v", dec["total_ms"])
	}
	if _, ok := app["critical_path"]; !ok {
		t.Fatal("critical path missing from export")
	}
	conts := app["containers"].([]any)
	if len(conts) != 3 {
		t.Fatalf("containers=%d", len(conts))
	}
	if !strings.Contains(out, "\"instance\": \"spe\"") {
		t.Fatal("instance labels missing")
	}
}

func TestJSONExportEmpty(t *testing.T) {
	out, err := ReportFrom(nil, nil).JSON()
	if err != nil || out != "[]" {
		t.Fatalf("empty export: %q %v", out, err)
	}
}

// The oracle: the export as a reflected projection that encoding/json
// marshals and indents, which is how the export was first defined. The
// hand-written encoder must print exactly these bytes.

type oracleApp struct {
	App       string            `json:"app"`
	Name      string            `json:"name,omitempty"`
	Type      string            `json:"type,omitempty"`
	Queue     string            `json:"queue,omitempty"`
	Submitted int64             `json:"submitted_ms"`
	Decomp    jsonDecomp        `json:"decomposition"`
	Path      []oracleSegment   `json:"critical_path,omitempty"`
	Container []oracleContainer `json:"containers"`
}

type oracleSegment struct {
	Label string `json:"label"`
	MS    int64  `json:"ms"`
}

type oracleContainer struct {
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

func oracleJSON(t *testing.T, r *Report) string {
	t.Helper()
	out := make([]oracleApp, 0, len(r.Apps))
	for _, a := range r.Apps {
		ja := oracleApp{
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
			ja.Path = append(ja.Path, oracleSegment{Label: s.Label, MS: s.Duration()})
		}
		for _, c := range a.Containers {
			ja.Container = append(ja.Container, oracleContainer{
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
		t.Fatal(err)
	}
	return string(b)
}

// TestWriteJSONMatchesMarshalIndent holds the encoder to the oracle on
// the golden trees, the Spark corpus and hand-built reports that reach
// every omitempty, null and escaping branch.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	reports := map[string]*Report{
		"spark-corpus": analyze(t, buildSparkCorpus()),
		"empty":        {},
	}
	root := filepath.Join("testdata", "golden")
	cases, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		ck := New()
		if err := ck.AddDir(filepath.Join(root, c.Name(), "input")); err != nil {
			t.Fatal(err)
		}
		reports["golden/"+c.Name()] = ck.Analyze()
	}

	app := func(seq int) ids.AppID { return ids.AppID{ClusterTS: 1499000000000, Seq: seq} }
	cont := func(seq, num int) *ContainerTrace {
		return &ContainerTrace{ID: ids.ContainerID{App: app(seq), Attempt: 1, Num: num}}
	}
	// A complete trace with a critical path, relabelled below.
	odd := analyze(t, buildSparkCorpus()).Apps[0]
	odd.Name = `<script>&"\` + "\x00\t\n\x1f\x7f"
	odd.AppType = "\xff\xfe invalid UTF-8"
	odd.Queue = "line\u2028para\u2029 \u00e9 \u65e5\u672c"
	odd.Containers[0].Node = `node"<1>`
	odd.Containers[1].Instance = "weird&type"
	odd.Decomp.Anomalies = []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\tb", "a\x7fb", "a\u2028b", "", " ~"}
	reports["hand-built"] = &Report{Apps: []*AppTrace{
		// No containers and no decomposition.
		{ID: app(1), Submitted: 100},
		// Containers but no submission, so no critical path; anomalies.
		{
			ID:         app(2),
			Containers: []*ContainerTrace{cont(2, 1), {ID: ids.ContainerID{App: app(2), Attempt: 2, Num: 7}, Instance: InstSparkExecutor, Allocated: -1, Lost: 42}},
			Decomp:     &Decomposition{Total: -1, Driver: 3, Anomalies: []string{"no FIRST_TASK"}},
		},
		// An empty but non-nil container list and anomaly list.
		{ID: app(3), Containers: []*ContainerTrace{}, Decomp: &Decomposition{Complete: true, Anomalies: []string{}}},
		odd,
	}}

	for name, rep := range reports {
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := oracleJSON(t, rep); got != want {
			t.Errorf("%s: encoder output differs from MarshalIndent\n got: %.600q\nwant: %.600q", name, got, want)
		}
	}
}

// FuzzJSONQuote checks the quoting helper against encoding/json for
// arbitrary strings, valid UTF-8 or not.
func FuzzJSONQuote(f *testing.F) {
	for _, s := range []string{"", "plain", `<>&"\`, "\x00\x1f\x7f", "\xff", "\u2028\u2029", "\u00e9\u65e5\u672c", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString(%q) = %q, want %q", s, got[1:], want)
		}
	})
}
