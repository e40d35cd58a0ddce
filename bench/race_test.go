//go:build race

package main

// The race detector slows the in-process layers several-fold, so the smoke
// run's time budget does not apply under it.
func init() { raceEnabled = true }
