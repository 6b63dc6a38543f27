package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"declnet"
	"declnet/internal/api"
	"declnet/internal/core"
)

const requestTimeout = 10 * time.Second

// newHTTPClient is the load generator's only way to the daemon: at most
// two connections, ten seconds per request.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// wireRequest renders a call as the HTTP request declnetctl would send.
// body is reused across calls by the caller.
func wireRequest(base string, c *Call, body *bytes.Buffer) (*http.Request, error) {
	body.Reset()
	var path string
	var payload any
	switch c.Kind {
	case Probe, Explain:
		path = "/v1/probe"
		if c.Kind == Explain {
			path = "/v1/explain"
		}
		// Tenant names and dotted quads need no escaping.
		return http.NewRequest(http.MethodGet, base+path+"?tenant="+c.Tenant+"&src="+c.Src+"&dst="+c.Dst, nil)
	case SetPermit:
		path, payload = "/v1/permit", api.PermitRequest{Tenant: c.Tenant, Target: c.Target, Entries: c.Entries}
	case RequestEIP:
		path, payload = "/v1/eips", api.EIPRequest{Tenant: c.Tenant, VM: c.VM}
	case ReleaseEIP:
		path, payload = "/v1/eips/release", api.ReleaseRequest{Tenant: c.Tenant, EIP: c.EIP}
	case Bind:
		path, payload = "/v1/bind", api.BindRequest{Tenant: c.Tenant, EIP: c.EIP, SIP: c.SIP, Weight: c.Weight}
	case SetQoS:
		path, payload = "/v1/qos", api.QoSRequest{Tenant: c.Tenant, Provider: c.Provider, Region: c.Region, Bandwidth: c.Bps}
	default:
		path, payload = "/v1/batch", api.BatchRequest{Tenant: c.Tenant, Ops: c.Ops}
	}
	if err := json.NewEncoder(body).Encode(payload); err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

var (
	rttKey       = []byte(`"rtt_ms"`)
	reachableKey = []byte(`"reachable":true`)
)

// readResponse extracts what the model checks from a response body.
func readResponse(c *Call, status int, body []byte, r *Result) {
	r.Status, r.RespBytes = status, len(body)
	if status != http.StatusOK {
		return
	}
	switch {
	case c.Kind == Probe:
		r.HasRTT = bytes.Contains(body, rttKey)
	case c.Kind == Explain:
		r.Reachable = bytes.Contains(body, reachableKey)
	case c.Kind == RequestEIP:
		var resp api.EIPResponse
		if r.Err = json.Unmarshal(body, &resp); r.Err == nil {
			r.Addr = resp.EIP
		}
	case len(c.Ops) > 0:
		var resp api.BatchResponse
		if r.Err = json.Unmarshal(body, &resp); r.Err == nil {
			r.Applied = resp.Applied
			r.Addrs = make([]string, len(resp.Results))
			for i, res := range resp.Results {
				r.Addrs[i] = res.Addr
			}
		}
	}
}

// httpExec drives a server over a socket. One per worker: the buffers
// are not shared.
type httpExec struct {
	client  *http.Client
	base    string
	reqBuf  bytes.Buffer
	respBuf bytes.Buffer
}

func (e *httpExec) Do(c *Call) Result {
	var r Result
	req, err := wireRequest(e.base, c, &e.reqBuf)
	if err != nil {
		r.Err = err
		return r
	}
	r.ReqBytes = e.reqBuf.Len()
	resp, err := e.client.Do(req)
	if err != nil {
		r.Err = err
		return r
	}
	e.respBuf.Reset()
	_, err = e.respBuf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.Err = err
		return r
	}
	readResponse(c, resp.StatusCode, e.respBuf.Bytes(), &r)
	return r
}

// handlerExec calls a handler in-process, no socket: depth (d) of the
// traced run.
type handlerExec struct {
	h      http.Handler
	reqBuf bytes.Buffer
}

func (e *handlerExec) Do(c *Call) Result {
	var r Result
	req, err := wireRequest("http://bench", c, &e.reqBuf)
	if err != nil {
		r.Err = err
		return r
	}
	r.ReqBytes = e.reqBuf.Len()
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, req)
	readResponse(c, rec.Code, rec.Body.Bytes(), &r)
	return r
}

// coreExec calls the *declnet.Tenant methods the HTTP handlers call,
// with no HTTP and no JSON: depths (a) to (c) of the traced run. Errors
// map to the statuses the handlers would answer.
type coreExec struct{ world *declnet.World }

func (e *coreExec) Do(c *Call) Result {
	r := Result{Status: http.StatusOK}
	t := e.world.Tenant(c.Tenant)
	fail := func(status int, err error) Result {
		if err != nil {
			r.Status = status
		}
		return r
	}
	ip := func(s string) declnet.IP {
		a, err := declnet.ParseIP(s)
		if err != nil && r.Err == nil {
			r.Err = err
		}
		return a
	}
	switch c.Kind {
	case Probe:
		src, dst := ip(c.Src), ip(c.Dst)
		_, _, err := t.Probe(src, dst)
		r.HasRTT = err == nil
		return fail(http.StatusForbidden, err)
	case Explain:
		src, dst := ip(c.Src), ip(c.Dst)
		ex, err := t.Explain(src, dst)
		if err == nil {
			r.Reachable = ex.Reachable
		}
		return fail(http.StatusNotFound, err)
	case SetPermit:
		entries, err := parseEntries(c.Entries)
		if err != nil {
			r.Err = err
			return r
		}
		return fail(http.StatusConflict, t.SetPermitList(ip(c.Target), entries))
	case RequestEIP:
		eip, err := t.RequestEIP(declnet.NodeID(c.VM))
		if err == nil {
			r.Addr = eip.String()
		}
		return fail(http.StatusConflict, err)
	case ReleaseEIP:
		return fail(http.StatusConflict, t.ReleaseEIP(ip(c.EIP)))
	case Bind:
		return fail(http.StatusConflict, t.Bind(ip(c.EIP), ip(c.SIP), c.Weight))
	case SetQoS:
		return fail(http.StatusConflict, t.SetQoS(c.Provider, c.Region, c.Bps))
	}
	ops := make([]core.BatchOp, len(c.Ops))
	for i, o := range c.Ops {
		entries, err := parseEntries(o.Entries)
		if err != nil {
			r.Err = err
			return r
		}
		ops[i] = core.BatchOp{Op: o.Op, VM: declnet.NodeID(o.VM), Provider: o.Provider,
			EIP: o.EIP, SIP: o.SIP, Target: o.Target, Weight: o.Weight, Entries: entries}
	}
	results, err := e.world.Cloud.ApplyBatch(c.Tenant, ops)
	r.Applied = len(results)
	r.Addrs = make([]string, len(results))
	for i, res := range results {
		if res.Addr != 0 {
			r.Addrs[i] = res.Addr.String()
		}
	}
	return fail(http.StatusConflict, err)
}

func parseEntries(in []string) ([]declnet.Prefix, error) {
	out := make([]declnet.Prefix, len(in))
	for i, e := range in {
		p, err := api.ParsePermitEntry(e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// getJSON fetches one of the daemon's JSON documents.
func getJSON(client *http.Client, url string, out any) error {
	body, err := getBody(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	return okBody(resp, url)
}

// postJSON sends an empty POST and decodes the answer into out, if set.
func postJSON(client *http.Client, url string, out any) error {
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	body, err := okBody(resp, url)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func okBody(resp *http.Response, url string) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
