package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ids"
)

// TestSubmissionReachesTrace: an APP_SUMMARY event carries the
// submission line's name, type and queue behind its Submission pointer,
// and both correlation paths copy them onto the application's trace:
// the offline Correlate over a parser's events and the live Stream fed
// the same lines.
func TestSubmissionReachesTrace(t *testing.T) {
	app := "application_1499000000000_0003"
	rm := "hadoop/yarn-resourcemanager.log"
	lines := []string{
		line(80, "x.RMAppManager$ApplicationSummary", "Application "+app+" submitted: name=etl-7 type=MAPREDUCE queue=prod"),
		line(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
		line(300, "x.RMContainerImpl", "container_1499000000000_0003_01_000001 Container Transitioned from NEW to ALLOCATED"),
	}
	want := Submission{Name: "etl-7", AppType: "MAPREDUCE", Queue: "prod"}

	p := NewParser()
	if err := p.ParseReader(rm, strings.NewReader(strings.Join(lines, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}
	summaries := 0
	for _, e := range p.Events() {
		if e.Kind != AppSubmitted0 {
			if e.Submission != nil {
				t.Errorf("%v carries a submission summary", e)
			}
			continue
		}
		summaries++
		if e.Submission == nil || *e.Submission != want {
			t.Errorf("APP_SUMMARY event carries %+v, want %+v", e.Submission, want)
		}
	}
	if summaries != 1 {
		t.Fatalf("mined %d APP_SUMMARY events, want 1", summaries)
	}

	st := NewStream()
	for _, l := range lines {
		st.Feed(rm, l)
	}
	id := ids.AppID{ClusterTS: 1499000000000, Seq: 3}
	for how, a := range map[string]*AppTrace{"Correlate": Correlate(p.Events())[0], "Stream": st.trace(id)} {
		if got := (Submission{Name: a.Name, AppType: a.AppType, Queue: a.Queue}); a.ID != id || got != want {
			t.Errorf("%s: trace %s has submission %+v, want %s with %+v", how, a.ID, got, id, want)
		}
	}
}

// TestAppAndContainerEventsGroupAndRoute: an application-level event is
// bound to a container ID whose Attempt and Num are zero, and a
// container-level event to its container's full ID. Both kinds belong
// to the application in the ID, so Correlate groups them on it and a
// ShardedStream routes them to the shard that owns it: each application
// over two cluster timestamps ends up with exactly its own milestones,
// containers and events, whatever shard it hashes to.
func TestAppAndContainerEventsGroupAndRoute(t *testing.T) {
	const apps = 12
	rm := "hadoop/yarn-resourcemanager.log"
	var lines []string
	submitted := make(map[ids.AppID]int64)
	for i := 0; i < apps; i++ {
		id := ids.AppID{ClusterTS: 1499000000000 + int64(i%2), Seq: 1 + i/2}
		app := id.String()
		off := int64(i) * 10
		submitted[id] = base + off + 1
		lines = append(lines,
			line(off+1, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
			line(off+2, "x.RMAppImpl", app+" State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"))
		for n := 1; n <= 2; n++ {
			cid := ids.ContainerID{App: id, Attempt: 1, Num: n}
			lines = append(lines, line(off+3, "x.RMContainerImpl", cid.String()+" Container Transitioned from NEW to ALLOCATED"))
		}
	}

	p := NewParser()
	if err := p.ParseReader(rm, strings.NewReader(strings.Join(lines, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Events() {
		if appKind := e.Kind == AppSubmitted || e.Kind == AppAccepted; e.AppLevel() != appKind {
			t.Fatalf("%v: AppLevel() = %v, want %v", e, e.AppLevel(), appKind)
		}
	}

	ss := NewShardedStream(4)
	defer ss.Close()
	for _, l := range lines {
		ss.Feed(rm, l)
	}
	ss.Quiesce()
	offline := Correlate(p.Events())
	if len(offline) != apps {
		t.Fatalf("Correlate made %d traces, want %d", len(offline), apps)
	}
	for _, a := range offline {
		live := ss.App(a.ID)
		if live == nil {
			t.Fatalf("%s: not tracked live", a.ID)
		}
		owner := ss.shards[ss.shardOf(a.ID)]
		owner.stMu.Lock()
		held := owner.st.apps[a.ID] != nil
		owner.stMu.Unlock()
		if !held {
			t.Errorf("%s: not held by its owning shard", a.ID)
		}
		for how, tr := range map[string]*AppTrace{"Correlate": a, "ShardedStream": live} {
			if tr.Submitted != submitted[tr.ID] || tr.Accepted != tr.Submitted+1 {
				t.Errorf("%s: %s submitted %d, accepted %d", how, tr.ID, tr.Submitted, tr.Accepted)
			}
			if len(tr.Events) != 4 || len(tr.Containers) != 2 {
				t.Errorf("%s: %s holds %d events and %d containers, want 4 and 2", how, tr.ID, len(tr.Events), len(tr.Containers))
			}
			for _, e := range tr.Events {
				if e.App() != tr.ID {
					t.Errorf("%s: %s holds %v", how, tr.ID, e)
				}
			}
			for _, c := range tr.Containers {
				if c.ID.App != tr.ID || c.Allocated == 0 {
					t.Errorf("%s: %s holds container %s allocated at %d", how, tr.ID, c.ID, c.Allocated)
				}
			}
		}
	}
	if got, want := p.Events()[0].String(), fmt.Sprintf("%d SUBMITTED application_1499000000000_0001", base+1); got != want {
		t.Errorf("app-level event renders as %q, want %q", got, want)
	}
}
