// Package cluster models the physical testbed of the paper: 26 nodes, each
// with two 8-core hyper-threaded Xeons (32 vcores), 132 GB RAM, a RAID-5
// array of five hard drives, and a 10 Gbps NIC. One node hosts the
// ResourceManager and HDFS NameNode; the remaining 25 are workers, matching
// the paper's "25 working nodes".
//
// Performance-relevant hardware (CPU time, disk bandwidth, NIC bandwidth)
// is modeled with processor-sharing resources from internal/share, so that
// colocated work slows each other down the way the paper's interference
// experiments demonstrate. YARN-level accounting (allocatable vcores and
// memory) lives in internal/yarn; this package is only the iron.
package cluster

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/share"
	"repro/internal/sim"
)

// NodeConfig describes one machine's hardware.
type NodeConfig struct {
	VCores   int     // schedulable virtual cores (hyper-threads)
	MemoryMB int     // physical RAM for YARN accounting
	DiskMBps float64 // aggregate sequential disk bandwidth (RAID-5 + page cache)
	NetMBps  float64 // NIC bandwidth
	// DiskSeekPenalty / DiskSeekFloor shape the seek-degradation curve of
	// the rotational array: aggregate bandwidth scales by
	// 1/(1+penalty*(streams-1)), floored. Zero penalty disables it.
	DiskSeekPenalty float64
	DiskSeekFloor   float64
}

// Config describes the whole cluster.
type Config struct {
	Workers    int // number of worker nodes (paper: 25)
	Node       NodeConfig
	FabricMBps float64 // aggregate switching fabric bandwidth
	Seed       uint64
}

// DefaultConfig mirrors the paper's testbed (section IV-A).
func DefaultConfig() Config {
	return Config{
		Workers: 25,
		Node: NodeConfig{
			VCores:          32,
			MemoryMB:        132 * 1024,
			DiskMBps:        800,  // 5x1TB RAID-5 HDD plus page-cache effects
			NetMBps:         1250, // 10 Gbps
			DiskSeekPenalty: 0.05,
			DiskSeekFloor:   0.35,
		},
		FabricMBps: 12500, // 10:1 oversubscribed fabric for 25 nodes
		Seed:       1,
	}
}

// Node is one worker machine.
type Node struct {
	Index int    // 0-based
	Name  string // "node01" ... matches hostnames in log lines

	VCores   int
	MemoryMB int

	CPU  *share.Resource // capacity: vcores (vcore-seconds per second)
	Disk *share.Resource // capacity: MB/s
	Net  *share.Resource // capacity: MB/s

	Rng *rng.Source

	// down marks a machine that has crashed (power loss, kernel panic).
	// Layered services (the NodeManager, processes) check it to blackhole
	// work; the share.Resources keep draining whatever was in flight, since
	// their callbacks are guarded by the layers above.
	down bool
}

// Fail marks the machine as crashed. Idempotent.
func (n *Node) Fail() { n.down = true }

// Recover marks the machine as back up after a restart. Idempotent.
func (n *Node) Recover() { n.down = false }

// Cluster is the set of worker nodes plus the shared fabric.
type Cluster struct {
	Eng    *sim.Engine
	Nodes  []*Node
	Fabric *share.Resource
	Rng    *rng.Source
	cfg    Config
}

// New builds a cluster on the given engine.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: need at least one worker")
	}
	root := rng.New(cfg.Seed)
	c := &Cluster{
		Eng:    eng,
		Fabric: share.NewResource(eng, "fabric", cfg.FabricMBps),
		Rng:    root.Fork(0xfab),
		cfg:    cfg,
	}
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("node%02d", i+1)
		n := &Node{
			Index:    i,
			Name:     name,
			VCores:   cfg.Node.VCores,
			MemoryMB: cfg.Node.MemoryMB,
			CPU:      share.NewResource(eng, name+"/cpu", float64(cfg.Node.VCores)),
			Disk:     share.NewResource(eng, name+"/disk", cfg.Node.DiskMBps),
			Net:      share.NewResource(eng, name+"/net", cfg.Node.NetMBps),
			Rng:      root.Fork(uint64(i) + 1),
		}
		if cfg.Node.DiskSeekPenalty > 0 {
			n.Disk.Degrade = share.NewSeekDegrade(cfg.Node.DiskSeekPenalty, cfg.Node.DiskSeekFloor)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Config returns the configuration the cluster was built with.
func (c *Cluster) Config() Config { return c.cfg }

// Node returns the i-th worker (0-based). It panics on a bad index, which
// is always a harness bug.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: node index %d out of range [0,%d)", i, len(c.Nodes)))
	}
	return c.Nodes[i]
}

// ByName returns the node with the given hostname, or nil.
func (c *Cluster) ByName(name string) *Node {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Compute runs work vcore-seconds of CPU at a parallelism cap of vcores on
// the node, invoking done when it finishes. Under CPU contention the job
// slows proportionally — this is how Kmeans interference stretches JVM
// warm-up and driver initialization in Fig 13.
func (n *Node) Compute(work float64, vcores float64, done func(at sim.Time)) *share.Job {
	return n.CPU.Start(work, vcores, done)
}

// Transfer is a data movement that must complete on every leg (e.g. remote
// disk read + fabric + local NIC). It completes when the slowest leg
// drains; each leg contends with whatever else shares its resource.
type Transfer struct {
	pendingLegs int
	done        func(at sim.Time)
	jobs        []*share.Job
	cancelled   bool
}

// Leg describes one resource a transfer crosses.
type Leg struct {
	Res    *share.Resource
	Work   float64 // units to move across this resource (MB)
	Demand float64 // peak rate on this resource (MB/s)
}

// StartTransfer launches all legs concurrently and calls done when every
// leg has drained. A transfer with no legs completes immediately via the
// engine (never synchronously), preserving callback ordering discipline.
func StartTransfer(eng *sim.Engine, legs []Leg, done func(at sim.Time)) *Transfer {
	t := &Transfer{done: done}
	live := make([]Leg, 0, len(legs))
	for _, l := range legs {
		if l.Work > 0 {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		eng.After(0, func() {
			if !t.cancelled {
				done(eng.Now())
			}
		})
		return t
	}
	t.pendingLegs = len(live)
	for _, l := range live {
		job := l.Res.Start(l.Work, l.Demand, func(at sim.Time) {
			if t.cancelled {
				return
			}
			t.pendingLegs--
			if t.pendingLegs == 0 {
				t.done(at)
			}
		})
		t.jobs = append(t.jobs, job)
	}
	return t
}

// Cancel abandons the transfer; done will not fire.
func (t *Transfer) Cancel() {
	if t.cancelled {
		return
	}
	t.cancelled = true
	for _, j := range t.jobs {
		j.Resource().Cancel(j)
	}
	t.jobs = nil
}
