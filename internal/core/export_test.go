package core

// Helpers of core's in-package tests that its black-box tests (package
// core_test, sim_test.go) share.
var (
	EntriesEqual  = entriesEqual
	SortedEntries = sortedEntries
	SweepWork     = sweepWork
)
