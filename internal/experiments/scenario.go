// Package experiments assembles whole-testbed scenarios and regenerates
// every table and figure of the paper's evaluation (§IV). Each FigN /
// TableN function builds a cluster, submits the workload, runs the
// simulation to completion, feeds the produced logs to SDchecker, and
// returns the structured rows or series the paper plots.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spark"
	"repro/internal/yarn"
)

// DefaultClusterTS is the cluster start timestamp embedded in all IDs and
// the wall-clock epoch of sim time 0 (July 2017, around when the paper's
// experiments ran).
const DefaultClusterTS = 1499000000000

// Options configure a scenario.
type Options struct {
	Cluster   cluster.Config
	Yarn      yarn.Config
	ClusterTS int64
	Seed      uint64

	// Faults schedules deterministic node crashes/restarts into the run
	// (empty = the paper's fault-free testbed).
	Faults yarn.FaultSchedule
}

// DefaultOptions mirrors the paper's testbed and deployment.
func DefaultOptions() Options {
	return Options{
		Cluster:   cluster.DefaultConfig(),
		Yarn:      yarn.DefaultConfig(),
		ClusterTS: DefaultClusterTS,
		Seed:      42,
	}
}

// Scenario is a fully wired simulated testbed.
type Scenario struct {
	Eng  *sim.Engine
	Cl   *cluster.Cluster
	FS   *hdfs.FS
	RM   *yarn.RM
	Sink *log4j.Sink
	Opts Options

	// Metrics is the scenario's registry; the engine and the RM (and all
	// NodeManagers, through it) are instrumented at construction.
	Metrics *metrics.Registry
}

// NewScenario builds the testbed: engine, cluster, HDFS, RM, one NM per
// worker, and the shared log sink. Framework packages are pre-created in
// HDFS and pre-warmed in every NM's localization cache (steady-state
// cluster, like the paper's).
func NewScenario(opts Options) *Scenario {
	eng := sim.NewEngine()
	// Mix the scenario seed into the cluster's so that per-node latency
	// streams differ across scenario seeds too.
	opts.Cluster.Seed ^= opts.Seed * 0x9e3779b97f4a7c15
	cl := cluster.New(eng, opts.Cluster)
	sink := log4j.NewSink(eng, log4j.Clock{EpochMS: opts.ClusterTS})
	fs := hdfs.New(eng, cl, opts.Seed^0xfd5)
	factory := ids.NewFactory(opts.ClusterTS)
	rm := yarn.NewRM(eng, opts.Yarn, cl, sink, factory, opts.Seed^0x12)

	fs.Create(spark.BasePackagePath, spark.BasePackageMB, nil)
	fs.Create("/mr/hadoop-mapreduce.tar.gz", 280, nil)

	for _, n := range cl.Nodes {
		nm := yarn.NewNodeManager(rm, n, fs, sink)
		nm.PrewarmCache(spark.BasePackagePath, "/mr/hadoop-mapreduce.tar.gz")
	}
	opts.Faults.Install(eng, rm)
	reg := metrics.NewRegistry()
	eng.Instrument(reg)
	rm.Instrument(reg)
	return &Scenario{Eng: eng, Cl: cl, FS: fs, RM: rm, Sink: sink, Opts: opts, Metrics: reg}
}

// PrewarmCaches marks extra paths localized on every node.
func (s *Scenario) PrewarmCaches(paths ...string) {
	for _, nm := range s.RM.NodeManagers() {
		nm.PrewarmCache(paths...)
	}
}

// Trace attaches (on first call) and returns the ground-truth span
// recorder. Attach it before submitting work; spans for phases that
// completed earlier are not recorded retroactively.
func (s *Scenario) Trace() *sim.Recorder {
	if s.RM.Tracer == nil {
		s.RM.Tracer = sim.NewRecorder()
	}
	return s.RM.Tracer
}

// Run drives the simulation until the event queue drains or the deadline
// passes, whichever comes first. It returns the final virtual time.
func (s *Scenario) Run(deadline sim.Time) sim.Time {
	return s.Eng.RunUntil(deadline)
}

// Check runs SDchecker over everything the scenario logged, parsing log
// files on GOMAXPROCS workers (byte-identical to a serial analysis).
func (s *Scenario) Check() *core.Report {
	rep, err := core.MineSink(s.Sink, 0)
	if err != nil {
		// The sink is in-memory; a parse error here is a harness bug.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rep
}

// msToSec converts a millisecond stat to seconds for display.
func msToSec(ms float64) float64 { return ms / 1000.0 }
