package ids

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAppIDString(t *testing.T) {
	id := AppID{ClusterTS: 1499000000000, Seq: 42}
	if got := id.String(); got != "application_1499000000000_0042" {
		t.Fatalf("got %q", got)
	}
}

func TestContainerIDString(t *testing.T) {
	c := ContainerID{App: AppID{ClusterTS: 1499000000000, Seq: 7}, Attempt: 1, Num: 3}
	if got := c.String(); got != "container_1499000000000_0007_01_000003" {
		t.Fatalf("got %q", got)
	}
}

func TestAttemptIDString(t *testing.T) {
	a := AttemptID{App: AppID{ClusterTS: 99, Seq: 2}, Attempt: 1}
	if got := a.String(); got != "appattempt_99_0002_000001" {
		t.Fatalf("got %q", got)
	}
}

// TestIDStringsMatchSprintf holds the hand-padded spellings to fmt's
// %0<width>d, including values wider than the pad, zero and negative
// values.
func TestIDStringsMatchSprintf(t *testing.T) {
	for _, v := range []struct {
		ts                int64
		seq, attempt, num int
	}{
		{1499000000000, 42, 1, 3},
		{0, 0, 0, 0},
		{99, 7, 12, 1234567},
		{1, 12345, 123, 9999999},
		{-1, -5, -1, -42},
		{-1499000000000, -12345, -123, -1234567},
		{math.MaxInt64, math.MaxInt, math.MaxInt, math.MaxInt},
		{math.MinInt64, math.MinInt, math.MinInt, math.MinInt},
	} {
		app := AppID{ClusterTS: v.ts, Seq: v.seq}
		if got, want := app.String(), fmt.Sprintf("application_%d_%04d", v.ts, v.seq); got != want {
			t.Errorf("AppID %+v: %q, want %q", app, got, want)
		}
		att := AttemptID{App: app, Attempt: v.attempt}
		if got, want := att.String(), fmt.Sprintf("appattempt_%d_%04d_%06d", v.ts, v.seq, v.attempt); got != want {
			t.Errorf("AttemptID %+v: %q, want %q", att, got, want)
		}
		c := ContainerID{App: app, Attempt: v.attempt, Num: v.num}
		if got, want := c.String(), fmt.Sprintf("container_%d_%04d_%02d_%06d", v.ts, v.seq, v.attempt, v.num); got != want {
			t.Errorf("ContainerID %+v: %q, want %q", c, got, want)
		}
	}
}

func TestParseAppIDRoundTrip(t *testing.T) {
	f := func(ts uint32, seq uint16) bool {
		id := AppID{ClusterTS: int64(ts), Seq: int(seq)}
		got, err := ParseAppID(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseContainerIDRoundTrip(t *testing.T) {
	f := func(ts uint32, seq uint16, num uint16) bool {
		c := ContainerID{App: AppID{ClusterTS: int64(ts), Seq: int(seq)}, Attempt: 1, Num: int(num)}
		got, err := ParseContainerID(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "application_1", "app_1_2", "application_x_0001", "application_1_y"} {
		if _, err := ParseAppID(bad); err == nil {
			t.Errorf("ParseAppID(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "container_1_2_3", "container_x_0001_01_000001", "application_1499_0001"} {
		if _, err := ParseContainerID(bad); err == nil {
			t.Errorf("ParseContainerID(%q) accepted", bad)
		}
	}
}

func TestIsAM(t *testing.T) {
	am := ContainerID{Num: 1}
	if !am.IsAM() {
		t.Fatal("container 1 should be the AM")
	}
	if (ContainerID{Num: 2}).IsAM() {
		t.Fatal("container 2 is not the AM")
	}
}

func TestFactorySequences(t *testing.T) {
	f := NewFactory(1499000000000)
	a1 := f.NewApp()
	a2 := f.NewApp()
	if a1.Seq != 1 || a2.Seq != 2 {
		t.Fatalf("app seqs %d,%d", a1.Seq, a2.Seq)
	}
	c1 := f.NewContainer(a1)
	c2 := f.NewContainer(a1)
	cb := f.NewContainer(a2)
	if c1.Num != 1 || c2.Num != 2 || cb.Num != 1 {
		t.Fatalf("container nums %d,%d,%d", c1.Num, c2.Num, cb.Num)
	}
	if !c1.IsAM() {
		t.Fatal("first container of an app must be the AM")
	}
	if f.ClusterTS() != 1499000000000 {
		t.Fatal("cluster timestamp lost")
	}
}

func TestFactoryUnknownApp(t *testing.T) {
	f := NewFactory(1)
	// Containers for an app the factory never issued still number from 1.
	c := f.NewContainer(AppID{ClusterTS: 1, Seq: 99})
	if c.Num != 1 {
		t.Fatalf("num=%d", c.Num)
	}
}

func TestZeroChecks(t *testing.T) {
	if !(AppID{}).IsZero() || !(ContainerID{}).IsZero() {
		t.Fatal("zero values must report IsZero")
	}
	if (AppID{Seq: 1}).IsZero() {
		t.Fatal("non-zero app reported zero")
	}
}
