// Tiers: the provider-differentiation story (§1: providers can still
// "differentiate through rich performance, availability, and security
// tiers" beneath the uniform API). A tenant runs the same workload with
// reserved and best-effort traffic classes, survives a backbone link
// failure, and gets invoiced under two price tiers.
//
//	go run ./examples/tiers
package main

import (
	"fmt"
	"log"
	"time"

	"declnet"
	"declnet/internal/meter"
)

func main() {
	world, err := declnet.NewFig1World(5, 2)
	if err != nil {
		log.Fatal(err)
	}
	f := world.Fig1
	acme := world.Tenant("acme")
	bill := meter.New()
	world.SetBiller(bill)
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Endpoints and a named service.
	etl, err := acme.RequestEIP(world.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	must(err)
	warehouse, err := acme.RequestEIP(world.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	must(err)
	must(acme.SetPermitList(warehouse, []declnet.Prefix{declnet.Exact(etl)}))
	must(acme.Register("warehouse", warehouse))

	// A 4 Gbps regional guarantee for the nightly ETL; reports ride
	// best-effort (§4-footnote traffic classes).
	must(acme.SetQoS(f.CloudA, f.RegionsA[0], 4e9))
	must(acme.SetPotato(f.CloudA, declnet.ColdPotato))

	// Two jobs: a 2 GB reserved ETL and a 500 MB best-effort report.
	type job struct {
		name  string
		size  float64
		class declnet.QoSClass
		fct   time.Duration
		conn  *declnet.Conn
	}
	jobs := []*job{
		{name: "2 GB reserved ETL", size: 2e9, class: declnet.Reserved},
		{name: "500 MB best-effort report", size: 500e6, class: declnet.BestEffort},
	}
	start := func(j *job, remaining float64, offset time.Duration) {
		conn, err := acme.ConnectName(etl, "warehouse", declnet.ConnectOpts{
			SizeBytes: remaining, Class: j.class,
			OnDone: func(d time.Duration) { j.fct = offset + d },
		})
		must(err)
		j.conn = conn
	}
	for _, j := range jobs {
		start(j, j.size, 0)
	}

	// Mid-transfer, the backbone link the cold-potato path rides fails.
	// In-flight flows on it stall; the applications retry their
	// connections, and the provider's fresh path computation routes
	// around the failure — no tenant routing knowledge involved.
	world.Sim.Eng.After(200*time.Millisecond, func() {
		if err := world.Sim.Net.FailLink(f.CloudA + "/bb/a-east-a-west"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("t=200ms: backbone link a-east<->a-west failed (provider's problem)")
	})
	world.Sim.Eng.After(500*time.Millisecond, func() {
		for _, j := range jobs {
			if j.fct != 0 || j.conn.Flow.Rate() > 0 {
				continue // finished or unaffected
			}
			sent := j.conn.Flow.SentBytes()
			j.conn.Close()
			fmt.Printf("t=500ms: %s stalled after %.0f MB; app retries, provider re-paths\n",
				j.name, sent/1e6)
			start(j, j.size-sent, 500*time.Millisecond)
		}
	})
	world.Run()
	for _, j := range jobs {
		fmt.Printf("%s finished in %v (outage included)\n", j.name, j.fct.Round(time.Millisecond))
	}

	// A month of this nightly pattern, invoiced under both tiers.
	usage := bill.Snapshot("acme", world.Now())
	usage.EIPSeconds *= 30 * 24 * 3600 / world.Now().Seconds() // scale to a month
	usage.SIPSeconds *= 30 * 24 * 3600 / world.Now().Seconds()
	usage.QuotaGbpsSeconds *= 30
	usage.ReservedBytes *= 30
	usage.BestEffortBytes *= 30

	for _, tier := range []meter.Rate{meter.StandardTier(), meter.PremiumTier()} {
		inv := meter.Price("acme", usage, tier)
		fmt.Println()
		fmt.Print(inv.Table().Text())
	}
	fmt.Println("\nsame API, different tiers — the provider differentiates below the interface")
}
