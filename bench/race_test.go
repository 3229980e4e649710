//go:build race

package main

// The race detector slows the traced passes, which run in the test binary,
// several times over; TestSmoke's time limit holds only without it.
func init() { smokeLimit = 0 }
