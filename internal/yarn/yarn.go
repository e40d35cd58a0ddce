// Package yarn simulates the Apache YARN resource manager stack the paper
// evaluates on: a ResourceManager with pluggable schedulers (the
// centralized Capacity Scheduler and the Hadoop-3.0 distributed
// Opportunistic scheduler from Mercury), NodeManagers with the container
// lifecycle state machine, the localization service, and the heartbeat
// protocols connecting them.
//
// Every state transition of the RMAppImpl, RMContainerImpl, and
// ContainerImpl state machines is written through internal/log4j in the
// exact layout the real daemons use, because those log lines — not any
// simulator-internal state — are SDchecker's only input.
package yarn

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/docker"
	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/sim"
)

// Real YARN logging class names; SDchecker's regexes (Table I) key on the
// trailing simple name.
const (
	ClassRMAppImpl       = "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl"
	ClassRMContainerImpl = "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl"
	ClassContainerImpl   = "org.apache.hadoop.yarn.server.nodemanager.containermanager.container.ContainerImpl"
	ClassContainerLaunch = "org.apache.hadoop.yarn.server.nodemanager.containermanager.launcher.ContainerLaunch"
	ClassCapacitySched   = "org.apache.hadoop.yarn.server.resourcemanager.scheduler.capacity.CapacityScheduler"
	ClassOpportunistic   = "org.apache.hadoop.yarn.server.resourcemanager.scheduler.distributed.OpportunisticContainerAllocator"
	ClassRMNodeImpl      = "org.apache.hadoop.yarn.server.resourcemanager.rmnode.RMNodeImpl"
	ClassLivelinessMon   = "org.apache.hadoop.yarn.util.AbstractLivelinessMonitor"
	ClassNodeStatusUpd   = "org.apache.hadoop.yarn.server.nodemanager.NodeStatusUpdaterImpl"
)

// SchedulerType selects the out-application scheduling policy.
type SchedulerType int

// Supported schedulers (paper §IV-A: Hadoop-3.0.0-alpha3 ships both).
const (
	// SchedCapacity is the centralized Capacity Scheduler ("ce-" in Fig 7).
	SchedCapacity SchedulerType = iota
	// SchedOpportunistic is the distributed opportunistic scheduler
	// ("de-" in Fig 7), which trades placement quality for latency.
	SchedOpportunistic
)

// String names the scheduler for reports.
func (s SchedulerType) String() string {
	if s == SchedOpportunistic {
		return "opportunistic"
	}
	return "capacity"
}

// ContainerType distinguishes guaranteed from opportunistic containers.
type ContainerType int

// Container execution types (Hadoop 3 opportunistic containers).
const (
	Guaranteed ContainerType = iota
	Opportunistic
)

// Profile is a container resource request (the "ensemble of CPU and
// memory" the paper describes).
type Profile struct {
	VCores   int
	MemoryMB int
}

// InstanceType labels what runs inside a container, for the Fig 9a
// launch-delay breakdown. Values follow the paper's x-axis labels.
type InstanceType string

// Instance types measured in Fig 9a.
const (
	InstSparkDriver   InstanceType = "spm"  // Spark driver (AppMaster)
	InstSparkExecutor InstanceType = "spe"  // Spark executor
	InstMRMaster      InstanceType = "mrm"  // MapReduce AppMaster
	InstMRMap         InstanceType = "mrsm" // MapReduce map task
	InstMRReduce      InstanceType = "mrsr" // MapReduce reduce task
)

// LocalResource is one file the NodeManager must localize before launch.
type LocalResource struct {
	Path   string  // HDFS path
	SizeMB float64 // file size
	// Public resources (framework jars) are cached per node across
	// applications; private ones (user --files) are fetched every time.
	Public bool
}

// Process is the application-side code that runs inside a container. The
// NodeManager invokes Launched after localization, queueing (for
// opportunistic containers) and container-runtime start overhead.
type Process interface {
	Launched(env *ProcessEnv)
}

// Killable is optionally implemented by Processes that need to know when
// their container dies with its node (a crash, not a graceful Exit). The
// process must stop scheduling work; it gets no further callbacks.
type Killable interface {
	Killed()
}

// LaunchSpec is everything the NodeManager needs to start a container.
type LaunchSpec struct {
	Resources []LocalResource
	Instance  InstanceType
	Runtime   docker.Runtime
	Process   Process
}

// Allocation is a granted container handed to an ApplicationMaster.
type Allocation struct {
	Container ids.ContainerID
	Node      *NodeManager
	Profile   Profile
	Type      ContainerType
	AllocTime sim.Time

	queue    *queueState // leaf queue charged for this container (guaranteed only)
	forAM    bool        // allocated to run the ApplicationMaster
	lost     bool        // terminally accounted (lost or released); dedupes expiry vs resync
	nmEpoch  int         // NM incarnation the reservation was made against
	reserved bool        // currently holds a node reservation (guaranteed only)
}

// Config holds the tunables of the YARN deployment.
type Config struct {
	Scheduler SchedulerType
	// Ordering selects FIFO (Capacity default) or Fair request ordering
	// for the centralized scheduler.
	Ordering OrderingPolicy
	// Queues configures the Capacity Scheduler's leaf queues (guaranteed
	// and maximum capacity fractions). Empty means one default queue
	// owning the whole cluster — the paper's setup.
	Queues []QueueConfig
	// NMHeartbeatMs is the NodeManager->ResourceManager heartbeat period
	// (default 1000 ms); centralized allocations happen on these beats.
	NMHeartbeatMs int64
	// AMHeartbeatMs is the default ApplicationMaster->RM heartbeat used by
	// MapReduce (1000 ms); it caps the container acquisition delay
	// (Fig 7c). Spark overrides its own allocator cadence.
	AMHeartbeatMs int64
	// RMDecisionMicros is the Capacity Scheduler's per-container
	// allocation decision cost.
	RMDecisionMicros int64
	// LocalityDelayMaxBeats models the Capacity Scheduler's delay
	// scheduling (yarn.scheduler.capacity.node-locality-delay): a request
	// with locality preferences is skipped for up to this many node
	// heartbeats before the scheduler relaxes to off-switch placement.
	// Each ask draws a uniform number of skip-beats up to this maximum;
	// AM requests have no locality preference and are never delayed.
	LocalityDelayMaxBeats int
	// MaxAssignPerHeartbeat caps containers assigned per node heartbeat.
	// Hadoop 3.0.0-alpha3's Capacity Scheduler assigns one container per
	// heartbeat by default (multiple-assignments came later); the
	// throughput experiment (Table II) raises it to the batch-assignment
	// configuration. <= 0 means unlimited.
	MaxAssignPerHeartbeat int
	// OppRPCMeanMs is the distributed scheduler's request round-trip.
	OppRPCMeanMs float64
	// OppPowerOfChoices is the distributed scheduler's placement policy:
	// 1 (default) picks a uniformly random node — the paper's
	// opportunistic scheduler, whose bad placements cause Fig 7b's
	// queueing; k >= 2 samples k nodes and places on the least loaded
	// (Sparrow's batch sampling), the natural fix the paper's related
	// work points to.
	OppPowerOfChoices int
	// AMProfile is the resource shape of AppMaster containers.
	AMProfile Profile
	// DockerOverhead configures RuntimeDocker launches.
	DockerOverhead docker.Overhead
	// LocalCacheReadDemandMBps caps cache-warm localization reads.
	LocalCacheReadDemandMBps float64
	// CacheDiskFraction is the fraction of a cache-warm file actually
	// re-read from disk during localization (the rest is page-cache hot).
	// Warm localization still degrades under disk interference — Fig 12b's
	// mechanism — but at the reduced volume.
	CacheDiskFraction float64
	// LocalizeCPUVcoreSecPerMB is NM-side CPU per localized MB (copy,
	// CRC, permissions).
	LocalizeCPUVcoreSecPerMB float64
	// ColdFetchDemandMBps caps cold localization fetch streams.
	ColdFetchDemandMBps float64
	// DedicatedLocalDiskMBps, when > 0, gives each NodeManager a separate
	// storage class (SSD / RAM disk) for localization IO instead of the
	// HDFS disks — the optimization the paper proposes in §V-B to isolate
	// localization from dfsIO-style interference. Zero keeps the paper's
	// default layout (/yarn-temp on the same drives as HDFS).
	DedicatedLocalDiskMBps float64
	// LocalizerSetupVcoreSec is NM-side CPU to set up a localizer.
	LocalizerSetupVcoreSec float64
	// LocalCacheCapacityMB bounds the per-node public localization cache
	// (yarn.nodemanager.localizer.cache.target-size-mb); LRU eviction.
	// <= 0 disables the bound.
	LocalCacheCapacityMB float64
	// JVMReuse enables the JVM-reuse optimization (ablation).
	JVMReuse bool
	// PreemptOpportunistic makes NodeManagers kill running opportunistic
	// containers (newest first) when a guaranteed container's launch
	// would otherwise oversubscribe the node's vcores — Hadoop 3's
	// guaranteed-over-opportunistic preemption. Killed containers are
	// reported as launch failures so the owning AM re-requests them.
	PreemptOpportunistic bool
	// LaunchFailureProb injects container launch failures (bad node, OOM
	// at fork, image pull error): with this probability the launch script
	// exits non-zero before the process comes up, the NM reports the
	// failure, and the owning ApplicationMaster must recover. 0 disables.
	LaunchFailureProb float64
	// NodeExpiryMs is how long the RM waits without a heartbeat before
	// declaring a node LOST and killing its containers
	// (yarn.nm.liveness-monitor.expiry-interval-ms). Real YARN defaults to
	// 600 s; the simulator defaults to 10 s so failure experiments resolve
	// within low-latency job lifetimes. <= 0 disables the monitor.
	NodeExpiryMs int64
	// UseVCoresAccounting makes the scheduler account vcores as well as
	// memory. Off by default: the stock Capacity Scheduler uses the
	// DefaultResourceCalculator, which considers memory only — the reason
	// a fully-loaded cluster can turn over far more 1 GB containers per
	// second than it has cores (Table II).
	UseVCoresAccounting bool
}

// DefaultConfig mirrors the paper's deployment defaults.
func DefaultConfig() Config {
	return Config{
		Scheduler:                SchedCapacity,
		NMHeartbeatMs:            1000,
		AMHeartbeatMs:            1000,
		RMDecisionMicros:         350,
		LocalityDelayMaxBeats:    45,
		MaxAssignPerHeartbeat:    1,
		OppRPCMeanMs:             18,
		OppPowerOfChoices:        1,
		AMProfile:                Profile{VCores: 1, MemoryMB: 2048},
		DockerOverhead:           docker.DefaultOverhead(),
		LocalCacheReadDemandMBps: 1200,
		CacheDiskFraction:        0.35,
		LocalizeCPUVcoreSecPerMB: 0.0005,
		ColdFetchDemandMBps:      800,
		LocalizerSetupVcoreSec:   0.02,
		LocalCacheCapacityMB:     20480,
		NodeExpiryMs:             10_000,
	}
}

func containerLogDir(app ids.AppID, c ids.ContainerID) string {
	return fmt.Sprintf("userlogs/%s/%s", app, c)
}

// StderrPath returns the container's log file path within the sink — the
// file whose first line is the FIRST_LOG event SDchecker mines.
func StderrPath(c ids.ContainerID) string {
	return containerLogDir(c.App, c) + "/stderr"
}

// RMLogFile is the ResourceManager log path within the sink.
const RMLogFile = "hadoop/yarn-resourcemanager.log"

// NMLogFile returns the NodeManager log path for a node.
func NMLogFile(node *cluster.Node) string {
	return "hadoop/yarn-nodemanager-" + node.Name + ".log"
}

// sinkLoggers bundles the per-daemon loggers.
type rmLoggers struct {
	app   *log4j.Logger
	cont  *log4j.Logger
	sched *log4j.Logger
	node  *log4j.Logger // RMNodeImpl: node state transitions
	live  *log4j.Logger // liveliness monitor: heartbeat expiry
}

func newRMLoggers(sink *log4j.Sink, schedClass string) rmLoggers {
	return rmLoggers{
		app:   sink.Logger(RMLogFile, ClassRMAppImpl),
		cont:  sink.Logger(RMLogFile, ClassRMContainerImpl),
		sched: sink.Logger(RMLogFile, schedClass),
		node:  sink.Logger(RMLogFile, ClassRMNodeImpl),
		live:  sink.Logger(RMLogFile, ClassLivelinessMon),
	}
}
