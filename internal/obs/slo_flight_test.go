package obs

import "testing"

// TestRecordSLOTransition: alert edges land in the flight recorder under
// the closed slo_fire/slo_resolve vocabulary, carrying the rule name and
// the fire-time exemplar count.
func TestRecordSLOTransition(t *testing.T) {
	p, _, clk := newTestPipeline()
	clk.now = 5_000
	p.RecordSLOTransition("tight-total", true, 3)
	p.RecordSLOTransition("tight-total", false, 0)

	d := p.Flight().Dump()
	if len(d.Events) != 2 {
		t.Fatalf("%d events, want 2", len(d.Events))
	}
	fire, resolve := d.Events[0], d.Events[1]
	if fire.Kind != KindSLOFire || fire.Detail != "tight-total" || fire.N != 3 || fire.AtMS != 5_000 || fire.Shard != -1 {
		t.Errorf("fire event %+v", fire)
	}
	if resolve.Kind != KindSLOResolve || resolve.Detail != "tight-total" || resolve.N != 0 {
		t.Errorf("resolve event %+v", resolve)
	}

	// Nil pipeline: inert like every other producer.
	var nilP *Pipeline
	nilP.RecordSLOTransition("x", true, 1)
}

// TestFlightRecordReturnsSeq: Record hands back the assigned sequence
// number so producers (the watchdog snapshot site) can cross-reference
// their own entries.
func TestFlightRecordReturnsSeq(t *testing.T) {
	p, _, _ := newTestPipeline()
	f := p.Flight()
	if got := f.Record(Event{Kind: KindStage, Shard: -1}); got != 0 {
		t.Fatalf("first seq = %d, want 0", got)
	}
	if got := f.Record(Event{Kind: KindStage, Shard: -1}); got != 1 {
		t.Fatalf("second seq = %d, want 1", got)
	}
	var nilF *Flight
	if got := nilF.Record(Event{}); got != 0 {
		t.Fatalf("nil Record = %d, want 0", got)
	}
}

// TestWatchdogEpisodeAccounting: Episodes counts healthy→stalled edges
// and LastSnapshotSeq points at the most recent flight_snapshot event.
func TestWatchdogEpisodeAccounting(t *testing.T) {
	p, reg, _ := newTestPipeline()
	w := NewWatchdog(p, reg, 100)
	if w.Episodes() != 0 || w.LastSnapshotSeq() != 0 {
		t.Fatalf("fresh watchdog: episodes=%d seq=%d", w.Episodes(), w.LastSnapshotSeq())
	}

	w.ScanBegin(1_000)
	w.Check(1_200) // stall 1
	if w.Episodes() != 1 {
		t.Fatalf("episodes = %d after first stall", w.Episodes())
	}
	seq1 := w.LastSnapshotSeq()
	w.ScanEnd(1_300)
	w.Check(1_310) // recover
	w.ScanBegin(2_000)
	w.Check(2_200) // stall 2
	if w.Episodes() != 2 {
		t.Fatalf("episodes = %d after second stall", w.Episodes())
	}
	seq2 := w.LastSnapshotSeq()
	if seq2 <= seq1 {
		t.Fatalf("snapshot seq did not advance: %d -> %d", seq1, seq2)
	}
	// The pointed-at event really is the snapshot record.
	for _, e := range p.Flight().Dump().Events {
		if e.Seq == seq2 && e.Kind != KindSnapshot {
			t.Fatalf("seq %d is %q, want %q", seq2, e.Kind, KindSnapshot)
		}
	}

	var nilW *Watchdog
	if nilW.Episodes() != 0 || nilW.LastSnapshotSeq() != 0 {
		t.Fatal("nil watchdog leaked episode state")
	}
}
