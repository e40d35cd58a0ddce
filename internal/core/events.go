// Package core implements SDchecker, the paper's contribution: an offline
// log-mining tool that decomposes the job scheduling delay of data
// analytics applications into components.
//
// SDchecker's only input is log files in log4j format, exactly as the
// paper describes (§III): it extracts the state-transition messages of
// Table I with regular expressions, binds each to its global ID
// (application ID or container ID), groups and time-orders the events,
// builds a scheduling graph per application (Fig 3), and computes the
// delay decomposition (§III-C). It knows nothing about the simulator that
// produced the logs — point it at a directory of real Hadoop/Spark logs
// with the same message shapes and it would work the same way.
package core

import (
	"fmt"

	"repro/internal/ids"
)

// Kind identifies one mined log message type. The first fourteen map 1:1
// to Table I of the paper; the remainder are extensions SDchecker uses
// for queueing delay, bug detection, and job-runtime accounting.
type Kind uint8

// Table I message kinds (numbered comments give the paper's row).
const (
	KindUnknown Kind = iota

	AppSubmitted      // 1.  RMAppImpl       SUBMITTED
	AppAccepted       // 2.  RMAppImpl       ACCEPTED
	AttemptRegistered // 3.  RMAppImpl       APT_REGISTERED
	ContAllocated     // 4.  RMContainerImpl ALLOCATED
	ContAcquired      // 5.  RMContainerImpl ACQUIRED
	ContLocalizing    // 6.  ContainerImpl   LOCALIZING
	ContScheduled     // 7.  ContainerImpl   SCHEDULED
	ContRunning       // 8.  ContainerImpl   RUNNING
	DriverFirstLog    // 9.  Spark-Driver    FIRST_LOG
	DriverRegister    // 10. Spark-Driver    REGISTER
	StartAllo         // 11. Spark-Driver    START_ALLO
	EndAllo           // 12. Spark-Driver    END_ALLO
	ExecutorFirstLog  // 13. Spark-Executor  FIRST_LOG
	FirstTask         // 14. Spark-Executor  FIRST_TASK

	// Extensions beyond Table I.
	AppFinished   // RMAppImpl FINISHED — job runtime accounting
	ContReleased  // RMContainerImpl RELEASED — bug detection
	ContExited    // ContainerImpl EXITED_WITH_SUCCESS
	LaunchInvoked // ContainerLaunch script invocation — queueing delay end
	OppQueued     // opportunistic container queued at the NM
	TaskFirstLog  // first log line of a non-Spark (MapReduce) container
	AppSubmitted0 // submission summary line: application name/type/queue
	ContLost      // RMContainerImpl KILLED — container lost to node failure
	ContAssigned  // scheduler "Assigned container ... on host" — node binding
)

// kindNames indexes Kind for display.
var kindNames = map[Kind]string{
	AppSubmitted:      "SUBMITTED",
	AppAccepted:       "ACCEPTED",
	AttemptRegistered: "APT_REGISTERED",
	ContAllocated:     "ALLOCATED",
	ContAcquired:      "ACQUIRED",
	ContLocalizing:    "LOCALIZING",
	ContScheduled:     "SCHEDULED",
	ContRunning:       "RUNNING",
	DriverFirstLog:    "FIRST_LOG(driver)",
	DriverRegister:    "REGISTER",
	StartAllo:         "START_ALLO",
	EndAllo:           "END_ALLO",
	ExecutorFirstLog:  "FIRST_LOG(executor)",
	FirstTask:         "FIRST_TASK",
	AppFinished:       "FINISHED",
	ContReleased:      "RELEASED",
	ContExited:        "EXITED",
	LaunchInvoked:     "LAUNCH_INVOKED",
	OppQueued:         "OPP_QUEUED",
	TaskFirstLog:      "FIRST_LOG(task)",
	AppSubmitted0:     "APP_SUMMARY",
	ContLost:          "LOST",
	ContAssigned:      "ASSIGNED",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TableINumber returns the paper's Table I row (1-14), or 0 for
// extension kinds.
func (k Kind) TableINumber() int {
	if k >= AppSubmitted && k <= FirstTask {
		return int(k)
	}
	return 0
}

// InstanceType labels what ran inside a container, inferred from the
// logging classes in its stderr file (Fig 9a's x-axis).
type InstanceType string

// Instance labels matching the paper's Fig 9a.
const (
	InstUnknown       InstanceType = ""
	InstSparkDriver   InstanceType = "spm"
	InstSparkExecutor InstanceType = "spe"
	InstMRMaster      InstanceType = "mrm"
	InstMRMap         InstanceType = "mrsm"
	InstMRReduce      InstanceType = "mrsr"
)

// InstanceCode is an InstanceType packed into the one byte an Event
// carries; Type unpacks it.
type InstanceCode uint8

// The instance codes, in instanceTypes order.
const (
	codeUnknown InstanceCode = iota
	codeSparkDriver
	codeSparkExecutor
	codeMRMaster
	codeMRMap
	codeMRReduce
)

// instanceTypes indexes InstanceCode.
var instanceTypes = [...]InstanceType{
	codeUnknown:       InstUnknown,
	codeSparkDriver:   InstSparkDriver,
	codeSparkExecutor: InstSparkExecutor,
	codeMRMaster:      InstMRMaster,
	codeMRMap:         InstMRMap,
	codeMRReduce:      InstMRReduce,
}

// Type returns the instance label c stands for.
func (c InstanceCode) Type() InstanceType { return instanceTypes[c] }

// Submission is what the RM's submission summary line says about an
// application. Only APP_SUMMARY events carry one.
type Submission struct {
	Name, AppType, Queue string
}

// Event is one mined log message, bound to its global IDs. It is laid
// out for size, 72 bytes on a 64-bit platform, because the parser's
// list, each app's event array and every sorted copy hold one per mined
// line.
type Event struct {
	Kind Kind
	// Instance is set on FIRST_LOG events: what ran in the container,
	// inferred from the logging classes in its stderr.
	Instance InstanceCode
	TimeMS   int64 // epoch milliseconds (log4j precision)
	// Container is the container the event is bound to. An
	// application-level event leaves its Attempt and Num zero and sets
	// only its App (see AppLevel).
	Container ids.ContainerID
	// Node is the host a container-level event was observed on: the
	// scheduler's "Assigned container ... on host" binding for ASSIGNED
	// events, or the NodeManager whose log file the event came from.
	Node string
	// Submission is set on APP_SUMMARY events, mined from the RM's
	// submission line, and nil on every other event.
	Submission *Submission
}

// App returns the application the event belongs to.
func (e Event) App() ids.AppID { return e.Container.App }

// AppLevel reports whether e is an application-level event, bound to no
// container.
func (e Event) AppLevel() bool { return e.Container.Attempt == 0 && e.Container.Num == 0 }

// summary returns e's submission summary, empty when it has none.
func (e Event) summary() Submission {
	if e.Submission == nil {
		return Submission{}
	}
	return *e.Submission
}

// String renders the event for debugging and graph dumps.
func (e Event) String() string {
	if e.AppLevel() {
		return fmt.Sprintf("%d %s %s", e.TimeMS, e.Kind, e.Container.App)
	}
	return fmt.Sprintf("%d %s %s", e.TimeMS, e.Kind, e.Container)
}
