// Package ids formats and parses YARN-style global identifiers. These IDs
// are the join keys SDchecker uses to correlate log lines emitted by
// different daemons: the ResourceManager logs container allocation, a
// NodeManager logs the same container's localization, and the Spark
// executor running inside it logs the first task — all carrying the same
// container ID.
package ids

import (
	"fmt"
	"strconv"
	"strings"
)

// AppID identifies one submitted application, e.g.
// "application_1499000000000_0042".
type AppID struct {
	ClusterTS int64 // ResourceManager start timestamp (epoch millis)
	Seq       int   // 1-based submission sequence number
}

// String renders the canonical YARN form.
func (a AppID) String() string {
	var buf [48]byte
	return string(a.appendNumbers(append(buf[:0], "application"...)))
}

// appendNumbers appends "_<ClusterTS>_<Seq, 4 digits>", the part every ID
// kind shares.
func (a AppID) appendNumbers(b []byte) []byte {
	b = strconv.AppendInt(append(b, '_'), a.ClusterTS, 10)
	return appendPadded(append(b, '_'), int64(a.Seq), 4)
}

// appendPadded appends v in decimal, zero-padded to width characters
// sign included, as fmt's %0<width>d spells it.
func appendPadded(b []byte, v int64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], v, 10)
	if v < 0 {
		b = append(b, '-')
		d = d[1:]
		width--
	}
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// IsZero reports whether the ID is unset.
func (a AppID) IsZero() bool { return a.ClusterTS == 0 && a.Seq == 0 }

// AttemptID identifies an application attempt, e.g.
// "appattempt_1499000000000_0042_000001".
type AttemptID struct {
	App     AppID
	Attempt int
}

// String renders the canonical YARN form.
func (a AttemptID) String() string {
	var buf [64]byte
	b := a.App.appendNumbers(append(buf[:0], "appattempt"...))
	return string(appendPadded(append(b, '_'), int64(a.Attempt), 6))
}

// ContainerID identifies one container, e.g.
// "container_1499000000000_0042_01_000003". Container number 1 is by YARN
// convention the ApplicationMaster's container.
type ContainerID struct {
	App     AppID
	Attempt int
	Num     int // 1-based within the attempt
}

// String renders the canonical YARN form.
func (c ContainerID) String() string {
	var buf [80]byte
	b := c.App.appendNumbers(append(buf[:0], "container"...))
	b = appendPadded(append(b, '_'), int64(c.Attempt), 2)
	return string(appendPadded(append(b, '_'), int64(c.Num), 6))
}

// IsZero reports whether the ID is unset.
func (c ContainerID) IsZero() bool { return c.App.IsZero() && c.Num == 0 }

// IsAM reports whether this is the ApplicationMaster container.
func (c ContainerID) IsAM() bool { return c.Num == 1 }

// ParseAppID parses the canonical form produced by AppID.String.
func ParseAppID(s string) (AppID, error) {
	parts := strings.Split(s, "_")
	if len(parts) != 3 || parts[0] != "application" {
		return AppID{}, fmt.Errorf("ids: malformed application id %q", s)
	}
	ts, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return AppID{}, fmt.Errorf("ids: bad cluster timestamp in %q: %v", s, err)
	}
	seq, err := strconv.Atoi(parts[2])
	if err != nil {
		return AppID{}, fmt.Errorf("ids: bad sequence in %q: %v", s, err)
	}
	return AppID{ClusterTS: ts, Seq: seq}, nil
}

// ParseContainerID parses the canonical form produced by
// ContainerID.String.
func ParseContainerID(s string) (ContainerID, error) {
	parts := strings.Split(s, "_")
	if len(parts) != 5 || parts[0] != "container" {
		return ContainerID{}, fmt.Errorf("ids: malformed container id %q", s)
	}
	ts, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return ContainerID{}, fmt.Errorf("ids: bad cluster timestamp in %q: %v", s, err)
	}
	seq, err := strconv.Atoi(parts[2])
	if err != nil {
		return ContainerID{}, fmt.Errorf("ids: bad app sequence in %q: %v", s, err)
	}
	attempt, err := strconv.Atoi(parts[3])
	if err != nil {
		return ContainerID{}, fmt.Errorf("ids: bad attempt in %q: %v", s, err)
	}
	num, err := strconv.Atoi(parts[4])
	if err != nil {
		return ContainerID{}, fmt.Errorf("ids: bad container number in %q: %v", s, err)
	}
	return ContainerID{App: AppID{ClusterTS: ts, Seq: seq}, Attempt: attempt, Num: num}, nil
}

// Factory hands out sequential application and container IDs, mirroring
// the counters inside the ResourceManager.
type Factory struct {
	clusterTS int64
	nextApp   int
	nextCont  map[AppID]int
}

// NewFactory creates a factory for a cluster started at the given epoch
// millisecond timestamp.
func NewFactory(clusterTS int64) *Factory {
	return &Factory{clusterTS: clusterTS, nextApp: 1, nextCont: make(map[AppID]int)}
}

// ClusterTS returns the cluster timestamp embedded in all IDs.
func (f *Factory) ClusterTS() int64 { return f.clusterTS }

// NewApp allocates the next application ID.
func (f *Factory) NewApp() AppID {
	id := AppID{ClusterTS: f.clusterTS, Seq: f.nextApp}
	f.nextApp++
	f.nextCont[id] = 1
	return id
}

// NewContainer allocates the next container ID for app (attempt 1).
func (f *Factory) NewContainer(app AppID) ContainerID {
	n := f.nextCont[app]
	if n == 0 {
		n = 1
	}
	f.nextCont[app] = n + 1
	return ContainerID{App: app, Attempt: 1, Num: n}
}
