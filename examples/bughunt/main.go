// Bug hunt: reproduce SDchecker's discovery of the Spark over-allocation
// bug (paper §V-A, reported upstream as SPARK-21562). In opportunistic
// mode Spark's allocator requests more containers than it ever starts
// executors in; SDchecker spots them because their RM-side states exist
// but no NodeManager or executor log states do.
//
//	go run ./examples/bughunt
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	res := experiments.BugHunt(40)
	fmt.Print(res.Format())

	// Show what the evidence looks like for one flagged container: only
	// RM-side states, nothing from the NM or the executor.
	if len(res.Findings) > 0 {
		f := res.Findings[0]
		for _, a := range res.Report.Apps {
			if a.ID != f.App {
				continue
			}
			fmt.Printf("\nevidence for %s:\n", f.Container)
			for _, e := range a.Events {
				if e.Container == f.Container {
					fmt.Printf("  %s\n", e)
				}
			}
			fmt.Println("  (no LOCALIZING/SCHEDULED/RUNNING, no FIRST_LOG, no FIRST_TASK)")
			break
		}
	}
}
