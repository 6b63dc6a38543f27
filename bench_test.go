// Benchmark harness: one benchmark per experiment table (E1–E10 from
// DESIGN.md) plus micro-benchmarks of the hot paths the experiments lean
// on. Regenerate every result with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report domain metrics via b.ReportMetric (boxes,
// routes, error percentages) so the paper-shape numbers appear alongside
// wall-clock cost.
package declnet

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/exp"
	"declnet/internal/gateway"
	"declnet/internal/lb"
	"declnet/internal/metrics"
	"declnet/internal/netsim"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/routing"
	"declnet/internal/sim"
	"declnet/internal/simplane"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// cellFloat extracts a numeric cell from an experiment table.
func cellFloat(b *testing.B, t *metrics.Table, rowLabel string, col int) float64 {
	b.Helper()
	for _, r := range t.Rows {
		if r[0] == rowLabel {
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil {
				b.Fatalf("cell %s[%d] = %q not numeric", rowLabel, col, r[col])
			}
			return v
		}
	}
	b.Fatalf("row %q not found", rowLabel)
	return 0
}

// BenchmarkE1BoxCount regenerates the Fig-1 burden comparison (E1).
func BenchmarkE1BoxCount(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E1BoxCount()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last, "total network boxes", 1), "baseline-boxes")
	b.ReportMetric(cellFloat(b, last, "tenant API calls", 2), "decl-api-calls")
}

// BenchmarkE2Catalog regenerates the component catalog (E2 / Table 1).
func BenchmarkE2Catalog(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := exp.E2Catalog()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "component-kinds")
}

// BenchmarkE3RoutingScale regenerates the routing-table scalability sweep
// (E3) at its middle scale.
func BenchmarkE3RoutingScale(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E3RoutingScale([]int{5000}, 8, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	flat, _ := strconv.ParseFloat(last.Rows[0][2], 64)
	agg, _ := strconv.ParseFloat(last.Rows[0][3], 64)
	b.ReportMetric(flat, "flat-routes")
	b.ReportMetric(agg, "zone-agg-routes")
}

// BenchmarkE4PermitScale regenerates the permit-list scalability sweep
// (E4) at its middle scale.
func BenchmarkE4PermitScale(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E4PermitScale([]int{5000}, 8, 50*time.Millisecond, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	entries, _ := strconv.ParseFloat(last.Rows[0][1], 64)
	b.ReportMetric(entries, "permit-entries")
}

// BenchmarkE5QuotaEnforce regenerates the quota-enforcement error table
// (E5) at one representative cell.
func BenchmarkE5QuotaEnforce(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E5QuotaEnforce([]int{200}, []sim.Time{100 * time.Millisecond}, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	meanErr, _ := strconv.ParseFloat(last.Rows[0][2], 64)
	b.ReportMetric(meanErr, "mean-err-%")
}

// BenchmarkE6QoSPotato regenerates the dedicated-vs-potato comparison (E6).
func BenchmarkE6QoSPotato(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E6QoSPotato(200, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Ratio of cold-potato to dedicated median RTT on the inter-cloud
	// pair: the paper's approximation conjecture in one number.
	var ded, cold time.Duration
	for _, r := range last.Rows {
		if r[0] != "cloudA->cloudB" {
			continue
		}
		d, _ := time.ParseDuration(r[2])
		switch r[1] {
		case "dedicated":
			ded = d
		case "cold":
			cold = d
		}
	}
	if ded > 0 {
		b.ReportMetric(float64(cold)/float64(ded), "cold/dedicated-rtt")
	}
}

// BenchmarkE7Security regenerates the attack matrix (E7).
func BenchmarkE7Security(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E7Security(10, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	var baseLeaked, declLeaked float64
	for _, r := range last.Rows {
		bl, _ := strconv.ParseFloat(r[4], 64)
		dl, _ := strconv.ParseFloat(r[7], 64)
		baseLeaked += bl
		declLeaked += dl
	}
	b.ReportMetric(baseLeaked, "baseline-leaked")
	b.ReportMetric(declLeaked, "decl-leaked")
}

// BenchmarkE8Migration regenerates the migration-effort comparison (E8).
func BenchmarkE8Migration(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E8Migration(42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last, "provisioning steps", 1), "baseline-steps")
	b.ReportMetric(cellFloat(b, last, "provisioning steps", 2), "decl-steps")
}

// BenchmarkE9Potato regenerates the hot-vs-cold location sweep (E9).
func BenchmarkE9Potato(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E9Potato(100, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Availability regenerates the failover comparison (E10).
func BenchmarkE10Availability(b *testing.B) {
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.E10Availability(200, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	for _, r := range last.Rows {
		if r[0] == "error rate %" {
			v, _ := strconv.ParseFloat(r[2], 64)
			b.ReportMetric(v, "decl-err-%")
		}
	}
}

// --- Micro-benchmarks of the hot paths --------------------------------

// BenchmarkLPMLookup measures the routing trie under a realistic table.
func BenchmarkLPMLookup(b *testing.B) {
	var tbl routing.Table
	for i := 0; i < 100000; i++ {
		p := addr.NewPrefix(addr.IP(uint32(i)<<8), 24)
		tbl.Install(p, routing.NextHop{ID: "hop"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addr.IP(uint32(i) * 2654435761))
	}
}

// BenchmarkPermitCheck measures default-off admission at scale.
func BenchmarkPermitCheck(b *testing.B) {
	e := permit.NewEngine()
	base := addr.MustParseIP("100.64.0.0")
	for i := 0; i < 50000; i++ {
		dst := base + addr.IP(i)
		e.Set(dst, []permit.Entry{addr.NewPrefix(base+addr.IP(i*7), 32)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Check(base+addr.IP(i*7), base+addr.IP(i%50000))
	}
}

// BenchmarkSIPPick measures smooth-WRR backend selection.
func BenchmarkSIPPick(b *testing.B) {
	bal := lb.New(addr.MustParseIP("104.255.0.1"))
	for i := 0; i < 32; i++ {
		bal.Bind(addr.MustParseIP("104.0.0.1")+addr.IP(i), 1+i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be, err := bal.Pick()
		if err != nil {
			b.Fatal(err)
		}
		bal.Release(be)
	}
}

// BenchmarkMaxMinReshare measures the fluid solver's recompute cost with
// 200 concurrent flows on the Fig-1 world.
func BenchmarkMaxMinReshare(b *testing.B) {
	w := topo.BuildFig1(4)
	eng := sim.New(1)
	net := netsim.New(w.Graph, eng)
	src := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dst := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	path, err := w.Graph.ShortestPath(src, dst, topo.PathOpts{})
	if err != nil {
		b.Fatal(err)
	}
	var probe *netsim.Flow
	for i := 0; i < 199; i++ {
		f, err := net.StartFlow(&netsim.Flow{Path: path, Size: -1})
		if err != nil {
			b.Fatal(err)
		}
		probe = f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := net.StartFlow(&netsim.Flow{Path: path, Size: -1})
		if err != nil {
			b.Fatal(err)
		}
		probe.Rate() // force the admission solve
		net.Stop(f)
		probe.Rate() // force the departure solve
	}
	reportSolverCost(b, net)
}

// reportSolverCost attaches the solver's cost counters to a benchmark
// that drives a netsim.Network.
func reportSolverCost(b *testing.B, net *netsim.Network) {
	b.ReportMetric(float64(net.Recomputes)/float64(b.N), "recomputes/op")
	b.ReportMetric(float64(net.FlowsTouched)/float64(b.N), "flows-touched/op")
}

// benchLines builds n disjoint two-hop lines and returns one a->c path per
// line (the sparse regime: many components, no shared links).
func benchLines(b *testing.B, n int) (*topo.Graph, []topo.Path) {
	b.Helper()
	g := topo.New()
	paths := make([]topo.Path, n)
	for i := 0; i < n; i++ {
		a := topo.NodeID("a" + strconv.Itoa(i))
		m := topo.NodeID("b" + strconv.Itoa(i))
		c := topo.NodeID("c" + strconv.Itoa(i))
		for _, id := range []topo.NodeID{a, m, c} {
			g.MustAddNode(topo.Node{ID: id})
		}
		g.MustConnect("ab"+strconv.Itoa(i), a, m, topo.Backbone, 100e6, time.Millisecond, 0, 0)
		g.MustConnect("bc"+strconv.Itoa(i), m, c, topo.Backbone, 100e6, time.Millisecond, 0, 0)
		p, err := g.ShortestPath(a, c, topo.PathOpts{})
		if err != nil {
			b.Fatal(err)
		}
		paths[i] = p
	}
	return g, paths
}

// BenchmarkReshareIncremental measures the incremental fair-share solver
// in its two regimes. sparse: 256 disjoint busy components, each event
// touches one (the incremental win — compare flows-touched/op against
// sparse-full, which forces the old full recompute). dense: every flow
// shares one path, so the component is the whole network and incremental
// equals full work.
func BenchmarkReshareIncremental(b *testing.B) {
	sparse := func(b *testing.B, forceFull bool) {
		const lines = 256
		g, paths := benchLines(b, lines)
		eng := sim.New(1)
		net := netsim.New(g, eng)
		net.ForceFull = forceFull
		occupants := make([]*netsim.Flow, lines)
		for i, p := range paths {
			f, err := net.StartFlow(&netsim.Flow{Path: p, Size: -1})
			if err != nil {
				b.Fatal(err)
			}
			occupants[i] = f
		}
		occupants[0].Rate() // settle the admission batch
		net.Recomputes, net.FlowsTouched, net.LinksTouched = 0, 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			line := i % lines
			f, err := net.StartFlow(&netsim.Flow{Path: paths[line], Size: -1})
			if err != nil {
				b.Fatal(err)
			}
			occupants[line].Rate()
			net.Stop(f)
			occupants[line].Rate()
		}
		reportSolverCost(b, net)
	}
	b.Run("sparse", func(b *testing.B) { sparse(b, false) })
	b.Run("sparse-full", func(b *testing.B) { sparse(b, true) })
	b.Run("dense", func(b *testing.B) {
		g, paths := benchLines(b, 1)
		eng := sim.New(1)
		net := netsim.New(g, eng)
		var probe *netsim.Flow
		for i := 0; i < 200; i++ {
			f, err := net.StartFlow(&netsim.Flow{Path: paths[0], Size: -1})
			if err != nil {
				b.Fatal(err)
			}
			probe = f
		}
		probe.Rate()
		net.Recomputes, net.FlowsTouched, net.LinksTouched = 0, 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := net.StartFlow(&netsim.Flow{Path: paths[0], Size: -1})
			if err != nil {
				b.Fatal(err)
			}
			probe.Rate()
			net.Stop(f)
			probe.Rate()
		}
		reportSolverCost(b, net)
	})
}

// BenchmarkSweepParallel compares the experiment sweep driver's pool at
// one worker (GOMAXPROCS 1) and at four (GOMAXPROCS 4) on an E5 grid
// (four independent cells per op).
func BenchmarkSweepParallel(b *testing.B) {
	grid := func(b *testing.B) {
		t, err := exp.E5QuotaEnforce([]int{50, 100},
			[]sim.Time{50 * time.Millisecond, 100 * time.Millisecond}, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatalf("rows = %d, want 4", len(t.Rows))
		}
	}
	for _, arm := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run(arm.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(arm.procs))
			for i := 0; i < b.N; i++ {
				grid(b)
			}
		})
	}
}

// BenchmarkFabricEvaluate measures the baseline reachability evaluator on
// the cross-cloud TGW path.
func BenchmarkFabricEvaluate(b *testing.B) {
	base, err := exp.BuildBaselineFig1()
	if err != nil {
		b.Fatal(err)
	}
	src := gateway.Source{Kind: gateway.FromInstance, VPCID: base.Analytics.ID, InstanceID: base.Spark1.ID}
	pkt := vnet.Packet{Src: base.Spark1.PrivateIP, Dst: base.DB1.PrivateIP, Proto: vnet.TCP, DstPort: 5432}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := base.Env.Fabric.Evaluate(src, pkt); !v.Delivered {
			b.Fatal(v)
		}
	}
}

// BenchmarkDeclarativeConnect measures the full declarative data path:
// admission, balancing, path selection, flow setup/teardown.
func BenchmarkDeclarativeConnect(b *testing.B) {
	d, err := exp.BuildDeclarativeFig1(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkConnect measures the declarative connect fast path on a dense
// Fig-1 world (50 hosts per zone). warm hits the epoch-keyed path cache
// on every op; cold bumps the topology epoch
// before each connect (a SetLinkUp no-op write still advances the epoch)
// so every op pays a full Dijkstra plus a cache flush. The warm/cold ratio
// is the fast path's whole value proposition in one number.
func BenchmarkConnect(b *testing.B) {
	setup := func(b *testing.B) *exp.DeclarativeFig1 {
		b.Helper()
		d, err := exp.BuildDeclarativeFig1(1, 50)
		if err != nil {
			b.Fatal(err)
		}
		// Prime every cache so the first measured op is steady-state.
		conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
		return d
	}
	b.Run("warm", func(b *testing.B) {
		d := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			conn.Close()
		}
	})
	b.Run("cold", func(b *testing.B) {
		d := setup(b)
		link := d.Cloud.G.Links()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Cloud.G.SetLinkUp(link.ID, link.Up()); err != nil {
				b.Fatal(err)
			}
			conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			conn.Close()
		}
	})
}

// BenchmarkConnectParallel drives warm connects from all procs with an
// external mutex serializing the connect itself — the shape the API server
// imposes (exclusive lock on writes) — so the benchmark surfaces any
// contention the read plane adds under parallel load.
func BenchmarkConnectParallel(b *testing.B) {
	d, err := exp.BuildDeclarativeFig1(1, 50)
	if err != nil {
		b.Fatal(err)
	}
	conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	conn.Close()
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			conn, err := d.Sim.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
			if err != nil {
				mu.Unlock()
				b.Fatal(err)
			}
			conn.Close()
			mu.Unlock()
		}
	})
}

// BenchmarkShortestPath measures raw Dijkstra on a few-hundred-node Fig-1
// world (25 hosts per zone ≈ 260 nodes), cross-cloud with a soft-avoid
// constraint so the search explores both the backbone and transit tiers.
func BenchmarkShortestPath(b *testing.B) {
	w := topo.BuildFig1(25)
	src := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dst := topo.HostID(w.CloudB, w.RegionsB[1], "az2", 1)
	opts := topo.PathOpts{Avoid: map[topo.LinkKind]bool{topo.Transit: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Graph.ShortestPath(src, dst, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPotatoPath measures policy path computation on the Fig-1 graph.
func BenchmarkPotatoPath(b *testing.B) {
	w := topo.BuildFig1(4)
	src := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dst := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qos.PathFor(w.Graph, qos.ColdPotato, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
