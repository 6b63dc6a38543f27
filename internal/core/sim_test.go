package core_test

// Core's black-box tests: the behaviour of a cloud over the simulated
// plane (package simplane, which imports core) — connections and their
// flows, the regional quota limiters, the fault monitor, metering, and
// the verbs, Explain and the reconciler as they meet them.

import (
	"testing"

	"declnet/internal/addr"
	. "declnet/internal/core"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

var (
	entriesEqual  = EntriesEqual
	sortedEntries = SortedEntries
	sweepWork     = SweepWork
)

// simOf is the simulated data plane a test cloud programs.
func simOf(c *Cloud) *simplane.Plane { return c.Plane().(*simplane.Plane) }

// fig1Cloud builds the Fig-1 world over the simulated plane, with
// providers for both clouds and the on-prem site.
func fig1Cloud(t *testing.T) (*Cloud, *topo.Fig1World, *Provider, *Provider, *Provider) {
	t.Helper()
	w := topo.BuildFig1(2)
	c := simplane.New(1, w.Graph).Cloud
	pa, pb, po, err := AddFig1Providers(c, w)
	if err != nil {
		t.Fatal(err)
	}
	return c, w, pa, pb, po
}
