// Mesh: a service-mesh control plane running entirely on the declarative
// API — the bridge between the paper's proposal and the Kubernetes/mesh
// world it cites as its application-layer assumption (§4).
//
// Three services (web -> orders -> payments) declare *who may call whom*;
// the mesh derives every permit list, SIP, and bind underneath. Then it
// does the L7 things meshes are for: a 20% canary rollout and a circuit
// breaker riding out a broken deploy.
//
//	go run ./examples/mesh
package main

import (
	"fmt"
	"log"
	"time"

	"declnet"
	"declnet/internal/app"
	"declnet/internal/mesh"
	"declnet/internal/topo"
)

func main() {
	world, err := declnet.NewFig1World(13, 3)
	if err != nil {
		log.Fatal(err)
	}
	f := world.Fig1
	m := mesh.New(world.Sim, "acme")
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// --- Declare the service graph ----------------------------------------
	_, err = m.AddService(mesh.ServiceConfig{Name: "web", Provider: f.CloudA})
	must(err)
	orders, err := m.AddService(mesh.ServiceConfig{
		Name: "orders", Provider: f.CloudB, Port: 443,
		Operations: []app.Operation{{Name: "place", Scope: "write", Schema: []string{"sku"}}},
	})
	must(err)
	payments, err := m.AddService(mesh.ServiceConfig{
		Name: "payments", Provider: f.CloudB, Port: 443,
		Operations:       []app.Operation{{Name: "charge", Scope: "pay", Schema: []string{"amount"}}},
		BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
	})
	must(err)
	must(m.Allow("web", "orders"))
	must(m.Allow("orders", "payments"))

	// --- Deploy workloads ---------------------------------------------------
	webWL, err := m.Deploy("web", topo.HostID(f.CloudA, f.RegionsA[0], "az1", 1), false)
	must(err)
	ordersWL, err := m.Deploy("orders", topo.HostID(f.CloudB, f.RegionsB[0], "az1", 1), false)
	must(err)
	_, err = m.Deploy("payments", topo.HostID(f.CloudB, f.RegionsB[0], "az2", 1), false)
	must(err)
	fmt.Println("service graph: web -> orders -> payments (permit lists derived, 0 written by hand)")

	// Identity enforcement: payments accepts orders, not web.
	payTok := payments.Gateway().IssueToken("orders", "pay")
	goodCharge := mesh.CallOpts{Request: app.Request{Bearer: payTok, Op: "charge",
		Args: map[string]string{"amount": "42"}}}
	if _, err := m.Call("web", webWL, "payments", goodCharge); err != nil {
		fmt.Println("web -> payments:", err)
	}
	res, err := m.Call("orders", ordersWL, "payments", goodCharge)
	must(err)
	fmt.Printf("orders -> payments: %v in %v\n", res.Outcome, res.RTT.Round(100*time.Microsecond))

	// --- Canary rollout ------------------------------------------------------
	_, err = m.Deploy("orders", topo.HostID(f.CloudB, f.RegionsB[1], "az1", 1), true)
	must(err)
	must(m.SetCanaryWeight("orders", 20))
	ordTok := orders.Gateway().IssueToken("web", "write")
	place := mesh.CallOpts{Request: app.Request{Bearer: ordTok, Op: "place",
		Args: map[string]string{"sku": "widget"}}}
	canaryHits := 0
	for i := 0; i < 100; i++ {
		r, err := m.Call("web", webWL, "orders", place)
		must(err)
		for _, w := range orders.Workloads() {
			if w.Canary && w.EIP == r.Backend {
				canaryHits++
			}
		}
	}
	fmt.Printf("canary at 20%%: %d/100 requests hit the canary\n", canaryHits)

	// --- Circuit breaker ------------------------------------------------------
	bad := mesh.CallOpts{Request: app.Request{Op: "charge"}} // anonymous: fails at gateway
	for i := 0; i < 3; i++ {
		m.Call("orders", ordersWL, "payments", bad)
	}
	if _, err := m.Call("orders", ordersWL, "payments", bad); err != nil {
		fmt.Println("after 3 failures:", err)
	}
	world.RunFor(3 * time.Second)
	if r, err := m.Call("orders", ordersWL, "payments", goodCharge); err == nil && r.Outcome == app.Served {
		fmt.Println("after cooldown: circuit half-opened, probe served, breaker closed")
	}
	fmt.Println("\nall of it — identities, canaries, breakers — over five networking verbs")
}
