package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOpensOneConnectionPerClient: a closed-loop run keeps exactly
// one keep-alive connection per client, so the harness measures the
// daemon rather than TCP handshakes. The stub answers every endpoint
// at once, which is the worst case for connection churn.
func TestRunOpensOneConnectionPerClient(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, "{}")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	mix, err := parseMix("ingest=1,whatif=2,recommend=1")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	o := opts{
		base:     srv.URL,
		clients:  clients,
		duration: 300 * time.Millisecond,
		timeout:  5 * time.Second,
		budget:   0.5,
		seed:     1,
		mix:      mix,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != clients {
		t.Fatalf("run opened %d connections with %d clients, want %d", got, clients, clients)
	}
}
