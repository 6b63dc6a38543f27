// Command declnetctl is the CLI client for declnetd: the five Table-2
// verbs (plus extensions) from a shell.
//
// Usage:
//
//	declnetctl [-server URL] [-tenant NAME] <command> [args]
//
//	request-eip <vm-node-id>
//	release-eip <eip>
//	request-sip <provider>
//	bind <eip> <sip> [weight]
//	unbind <eip> <sip>
//	permit <target> <entry> [entry...]     # CIDRs or bare IPs
//	qos <provider> <region> <bits-per-sec>
//	potato <provider> hot|cold|dedicated
//	group <name> <eip> [eip...]
//	batch [file]                           # JSON ops from file or stdin
//	probe <src> <dst>
//	explain <src> <dst>                    # replay the datapath verdict chain
//	trace [n] [kind]                       # recent decision trace events
//	slo [all]                              # latency/SLO report for -tenant (or all)
//	slo set <spec>                         # declare objectives, e.g. connect_p99=5ms;permit_lag_p99=1ms
//	health                                 # SLO health + noisy-neighbor breaches (exit 1 when degraded)
//	flight [n]                             # last n retained request spans (flight recorder)
//	reconcile [status|sweep]               # convergence counters, or force one sweep
//	snapshot                               # compact the durable intent store
//	metrics                                # Prometheus text exposition
//	status
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
)

func main() {
	args := os.Args[1:]
	server := "http://localhost:8080"
	tenant := "default"
	for len(args) >= 2 {
		switch args[0] {
		case "-server":
			server = args[1]
			args = args[2:]
		case "-tenant":
			tenant = args[1]
			args = args[2:]
		default:
			goto parsed
		}
	}
parsed:
	if len(args) == 0 {
		die("missing command; see -h in source header for usage")
	}
	cmd, rest := args[0], args[1:]
	c := client{server: server, tenant: tenant}
	var err error
	switch cmd {
	case "request-eip":
		err = c.requestEIP(rest)
	case "release-eip":
		err = c.releaseEIP(rest)
	case "request-sip":
		err = c.requestSIP(rest)
	case "bind":
		err = c.bind(rest)
	case "unbind":
		err = c.unbind(rest)
	case "permit":
		err = c.permit(rest)
	case "qos":
		err = c.qos(rest)
	case "potato":
		err = c.potato(rest)
	case "group":
		err = c.group(rest)
	case "batch":
		err = c.batch(rest)
	case "probe":
		err = c.probe(rest)
	case "explain":
		err = c.explain(rest)
	case "trace":
		err = c.trace(rest)
	case "slo":
		err = c.slo(rest)
	case "health":
		err = c.health(rest)
	case "flight":
		err = c.flight(rest)
	case "reconcile":
		err = c.reconcile(rest)
	case "snapshot":
		err = c.snapshot(rest)
	case "metrics":
		err = c.metrics(rest)
	case "status":
		err = c.status(rest)
	default:
		die(fmt.Sprintf("unknown command %q", cmd))
	}
	if err != nil {
		die(err.Error())
	}
}

func die(msg string) {
	fmt.Fprintln(os.Stderr, "declnetctl:", msg)
	os.Exit(1)
}

type client struct {
	server string
	tenant string
}

// call POSTs body to path (or GETs when body is nil) and pretty-prints
// the JSON response.
func (c client) call(method, path string, body any) error {
	var rdr io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.server+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, raw, "", "  ") == nil {
		fmt.Println(pretty.String())
	} else {
		fmt.Println(string(raw))
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}

func need(args []string, n int, usage string) error {
	if len(args) < n {
		return fmt.Errorf("usage: declnetctl %s", usage)
	}
	return nil
}

func (c client) requestEIP(args []string) error {
	if err := need(args, 1, "request-eip <vm-node-id>"); err != nil {
		return err
	}
	return c.call("POST", "/v1/eips", map[string]any{"tenant": c.tenant, "vm": args[0]})
}

func (c client) releaseEIP(args []string) error {
	if err := need(args, 1, "release-eip <eip>"); err != nil {
		return err
	}
	return c.call("POST", "/v1/eips/release", map[string]any{"tenant": c.tenant, "eip": args[0]})
}

func (c client) requestSIP(args []string) error {
	if err := need(args, 1, "request-sip <provider>"); err != nil {
		return err
	}
	return c.call("POST", "/v1/sips", map[string]any{"tenant": c.tenant, "provider": args[0]})
}

func (c client) bind(args []string) error {
	if err := need(args, 2, "bind <eip> <sip> [weight]"); err != nil {
		return err
	}
	weight := 1
	if len(args) >= 3 {
		w, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad weight %q", args[2])
		}
		weight = w
	}
	return c.call("POST", "/v1/bind", map[string]any{
		"tenant": c.tenant, "eip": args[0], "sip": args[1], "weight": weight})
}

func (c client) unbind(args []string) error {
	if err := need(args, 2, "unbind <eip> <sip>"); err != nil {
		return err
	}
	return c.call("POST", "/v1/unbind", map[string]any{
		"tenant": c.tenant, "eip": args[0], "sip": args[1]})
}

func (c client) permit(args []string) error {
	if err := need(args, 2, "permit <target> <entry> [entry...]"); err != nil {
		return err
	}
	return c.call("POST", "/v1/permit", map[string]any{
		"tenant": c.tenant, "target": args[0], "entries": args[1:]})
}

func (c client) qos(args []string) error {
	if err := need(args, 3, "qos <provider> <region> <bits-per-sec>"); err != nil {
		return err
	}
	bw, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("bad bandwidth %q", args[2])
	}
	return c.call("POST", "/v1/qos", map[string]any{
		"tenant": c.tenant, "provider": args[0], "region": args[1], "bandwidth_bps": bw})
}

func (c client) potato(args []string) error {
	if err := need(args, 2, "potato <provider> hot|cold|dedicated"); err != nil {
		return err
	}
	return c.call("POST", "/v1/potato", map[string]any{
		"tenant": c.tenant, "provider": args[0], "policy": args[1]})
}

func (c client) group(args []string) error {
	if err := need(args, 2, "group <name> <eip> [eip...]"); err != nil {
		return err
	}
	return c.call("POST", "/v1/groups", map[string]any{
		"tenant": c.tenant, "name": args[0], "members": args[1:]})
}

// batch submits many mutations as one /v1/batch request. The input —
// a file argument, or stdin when absent or "-" — is either a JSON array
// of op objects or a {"ops": [...]} wrapper; the tenant comes from
// -tenant. Op shapes match the per-endpoint request bodies, with "$i"
// back-references to earlier grants (see the server's BatchOpRequest).
func (c client) batch(args []string) error {
	var raw []byte
	var err error
	if len(args) >= 1 && args[0] != "-" {
		raw, err = os.ReadFile(args[0])
	} else {
		raw, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}
	var ops []json.RawMessage
	if json.Unmarshal(raw, &ops) != nil {
		var wrapped struct {
			Ops []json.RawMessage `json:"ops"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil || wrapped.Ops == nil {
			return fmt.Errorf(`batch input must be a JSON array of ops or {"ops": [...]}`)
		}
		ops = wrapped.Ops
	}
	return c.call("POST", "/v1/batch", map[string]any{"tenant": c.tenant, "ops": ops})
}

func (c client) probe(args []string) error {
	if err := need(args, 2, "probe <src> <dst>"); err != nil {
		return err
	}
	q := url.Values{"tenant": {c.tenant}, "src": {args[0]}, "dst": {args[1]}}
	return c.call("GET", "/v1/probe?"+q.Encode(), nil)
}

// explain asks the provider to replay the datapath decision for a
// hypothetical src->dst flow and print the ordered verdict chain.
func (c client) explain(args []string) error {
	if err := need(args, 2, "explain <src> <dst>"); err != nil {
		return err
	}
	q := url.Values{"tenant": {c.tenant}, "src": {args[0]}, "dst": {args[1]}}
	return c.call("GET", "/v1/explain?"+q.Encode(), nil)
}

// trace fetches the tenant's recent decision events, optionally limited
// to the last n and filtered to one event kind.
func (c client) trace(args []string) error {
	q := url.Values{"tenant": {c.tenant}}
	if len(args) >= 1 {
		if _, err := strconv.Atoi(args[0]); err != nil {
			return fmt.Errorf("bad event count %q", args[0])
		}
		q.Set("n", args[0])
	}
	if len(args) >= 2 {
		q.Set("kind", args[1])
	}
	return c.call("GET", "/v1/trace?"+q.Encode(), nil)
}

// slo reports per-shard latency accounting for -tenant ("slo all" drops
// the filter), or declares objectives: "slo set connect_p99=5ms".
func (c client) slo(args []string) error {
	if len(args) >= 1 && args[0] == "set" {
		if err := need(args, 2, "slo set <spec>"); err != nil {
			return err
		}
		return c.call("POST", "/v1/slo", map[string]any{
			"tenant": c.tenant, "objective": args[1]})
	}
	if len(args) >= 1 && args[0] == "all" {
		return c.call("GET", "/v1/slo", nil)
	}
	return c.call("GET", "/v1/slo?tenant="+url.QueryEscape(c.tenant), nil)
}

// health surfaces the burn-rate / noisy-neighbor view; the server answers
// 503 when degraded, so the exit status doubles as a probe.
func (c client) health(args []string) error {
	return c.call("GET", "/v1/health", nil)
}

// flight dumps the last n retained request spans (all when n omitted).
func (c client) flight(args []string) error {
	path := "/v1/debug/flight"
	if len(args) >= 1 {
		if _, err := strconv.Atoi(args[0]); err != nil {
			return fmt.Errorf("bad span count %q", args[0])
		}
		path += "?n=" + args[0]
	}
	return c.call("GET", path, nil)
}

// reconcile shows the desired-state convergence loop's counters, or
// with "sweep" forces one synchronous pass and prints what it repaired.
func (c client) reconcile(args []string) error {
	if len(args) >= 1 {
		switch args[0] {
		case "status":
		case "sweep":
			return c.call("POST", "/v1/reconcile/sweep", nil)
		default:
			return fmt.Errorf("usage: declnetctl reconcile [status|sweep]")
		}
	}
	return c.call("GET", "/v1/reconcile", nil)
}

// snapshot compacts the durable intent store: write a snapshot of the
// declared state and truncate the replay journal.
func (c client) snapshot(args []string) error {
	return c.call("POST", "/v1/snapshot", nil)
}

func (c client) metrics(args []string) error {
	return c.call("GET", "/v1/metrics", nil)
}

func (c client) status(args []string) error {
	return c.call("GET", "/v1/status", nil)
}
