package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ids"
)

// correlateWholeList is Correlate as one stable sort of the whole event
// list by time, then one trace builder per app fed in that order: the
// definition Correlate's per-app grouping must reproduce exactly.
func correlateWholeList(events []Event) []*AppTrace {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeMS < sorted[j].TimeMS })
	builders := make(map[ids.AppID]*traceBuilder)
	for _, e := range sorted {
		b := builders[e.App()]
		if b == nil {
			b = newTraceBuilder(e.App())
			builders[e.App()] = b
		}
		b.absorb(e)
	}
	out := make([]*AppTrace, 0, len(builders))
	for _, b := range builders {
		b.a.Events = b.events
		out = append(out, b.a)
	}
	sortTracesBySeq(out)
	return out
}

// TestCorrelateMatchesWholeListSort checks the per-app grouping against
// the whole-list definition on random arrivals: several apps over two
// cluster timestamps, timestamps packed so they tie within and across
// apps, AM retries sharing a container number, contended first-wins
// fields, and named and unnamed submission summaries. Tied events that
// differ in any field show a change in their order; events equal in
// every field are interchangeable in every output.
func TestCorrelateMatchesWholeListSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []Kind{AppSubmitted0, AppSubmitted, AppAccepted, AttemptRegistered, AppFinished,
		ContAllocated, ContAcquired, ContLocalizing, ContScheduled, LaunchInvoked, ContRunning,
		DriverFirstLog, ExecutorFirstLog, TaskFirstLog, FirstTask, ContExited, ContReleased,
		ContLost, OppQueued, ContAssigned, DriverRegister, StartAllo, EndAllo}
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(80)
		events := make([]Event, n)
		for i := range events {
			app := ids.AppID{ClusterTS: 1499000000000 + int64(rng.Intn(2)), Seq: 1 + rng.Intn(4)}
			e := Event{Kind: kinds[rng.Intn(len(kinds))], Container: ids.ContainerID{App: app}, TimeMS: base + int64(rng.Intn(8))}
			switch e.Kind {
			case AppSubmitted0:
				e.Submission = &Submission{Name: pick("", "q1", "q2"), AppType: pick("SPARK", "MR"), Queue: pick("default", "prod")}
			case AppSubmitted, AppAccepted, AttemptRegistered, AppFinished:
			default:
				e.Container = ids.ContainerID{App: app, Attempt: 1 + rng.Intn(2), Num: 1 + rng.Intn(3)}
				e.Node = pick("", "node01", "node02")
				e.Instance = InstanceCode(rng.Intn(4)) // unknown, spm, spe or mrm
			}
			events[i] = e
		}
		arrival := append([]Event(nil), events...)
		got, want := Correlate(events), correlateWholeList(events)
		if !slices.Equal(events, arrival) {
			t.Fatalf("iteration %d: Correlate reordered its input", iter)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: Correlate diverges from the whole-list sort on arrival %+v", iter, arrival)
		}
	}
}
