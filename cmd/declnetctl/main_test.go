package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestQueryOperandsAreEscaped: the GET commands carry the tenant and
// their operands in the query string, so a name holding a query
// metacharacter ('&', '#', '+', a space) must reach the server as
// itself, not split into another parameter or cut off.
func TestQueryOperandsAreEscaped(t *testing.T) {
	var got url.Values
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := client{server: srv.URL, tenant: "a&b+c"}
	src, dst := "100.64.0.1", "db#1+x&y=z"
	for name, run := range map[string]func([]string) error{"probe": c.probe, "explain": c.explain} {
		got = nil
		if err := run([]string{src, dst}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := url.Values{"tenant": {c.tenant}, "src": {src}, "dst": {dst}}
		if got.Encode() != want.Encode() {
			t.Errorf("%s: server decoded %v, want %v", name, got, want)
		}
	}
}
