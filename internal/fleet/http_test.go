package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// newHTTPFleet boots two nodes behind real HTTP servers, peer-addressed by
// their listener addresses — the same wiring cmd/lecd uses.
func newHTTPFleet(t *testing.T) map[string]*Node {
	t.Helper()
	mux1, mux2 := http.NewServeMux(), http.NewServeMux()
	srv1 := httptest.NewServer(mux1)
	srv2 := httptest.NewServer(mux2)
	t.Cleanup(srv1.Close)
	t.Cleanup(srv2.Close)
	addr1 := srv1.Listener.Addr().String()
	addr2 := srv2.Listener.Addr().String()
	peers := []string{addr1, addr2}

	nodes := make(map[string]*Node, 2)
	for addr, mux := range map[string]*http.ServeMux{addr1: mux1, addr2: mux2} {
		cat, _, _ := workload.Example11()
		n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
			Self: addr, Peers: peers, Transport: &HTTPTransport{}, HedgeDelay: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux.Handle("/fleet/", Handler(n))
		nodes[addr] = n
	}
	return nodes
}

// TestHTTPTransportPeerHit proves the wire path end to end: a request on
// the non-owner is answered by the owner over real HTTP, and a
// generation bump propagates back across the same wire.
func TestHTTPTransportPeerHit(t *testing.T) {
	nodes := newHTTPFleet(t)
	req := exampleRequest()

	var requester, ownerNode *Node
	for _, n := range nodes {
		_, key, err := n.svc.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		if n.view().ring.owner(key) == n.cfg.Self {
			ownerNode = n
		} else {
			requester = n
		}
	}
	if requester == nil || ownerNode == nil {
		t.Fatal("could not split owner/requester")
	}

	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("cross-node request failed: %v", err)
	}
	if !rep.PeerHit || rep.Peer == nil || rep.Peer.Decision.Plan == "" {
		t.Fatalf("cross-node request was not a peer hit: %+v", rep)
	}
	if got := ownerNode.svc.Stats().Optimizations; got != 1 {
		t.Errorf("owner ran %d optimizations, want 1", got)
	}
	if got := requester.svc.Stats().Optimizations; got != 0 {
		t.Errorf("requester ran %d optimizations, want 0", got)
	}

	requester.Invalidate()
	if got := ownerNode.svc.Generation(); got != 1 {
		t.Errorf("generation did not propagate over HTTP: owner at %d, want 1", got)
	}
}

// TestFleetMetricsFreeWhenDisabled: a registry wired to serve but not to
// fleet carries no lec_fleet_* series; wiring fleet registers the family.
func TestFleetMetricsFreeWhenDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	cat, _, _ := workload.Example11()
	svc := serve.New(cat, serve.Config{Workers: 2, Metrics: reg})
	if _, err := New(svc, Config{Self: "solo", Peers: []string{"solo"}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, m := range []map[string]float64{snap.Counters, snap.Gauges} {
		for name := range m {
			if len(name) >= 10 && name[:10] == "lec_fleet_" {
				t.Errorf("fleet disabled but %s registered", name)
			}
		}
	}
	for name := range snap.Histograms {
		if len(name) >= 10 && name[:10] == "lec_fleet_" {
			t.Errorf("fleet disabled but %s registered", name)
		}
	}

	reg2 := obs.NewRegistry()
	cat2, _, _ := workload.Example11()
	svc2 := serve.New(cat2, serve.Config{Workers: 2, Metrics: reg2})
	n, err := New(svc2, Config{Self: "solo", Peers: []string{"solo"}, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Optimize(context.Background(), exampleRequest()); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	for _, want := range []string{
		"lec_fleet_peer_hits_total", "lec_fleet_peer_misses_total",
		"lec_fleet_peer_hedges_total", "lec_fleet_peer_hedge_wins_total",
		"lec_fleet_peer_drops_total", "lec_fleet_stale_rejected_total",
		"lec_fleet_snapshot_saves_total", "lec_fleet_snapshot_loads_total",
	} {
		if _, ok := snap2.Counters[want]; !ok {
			t.Errorf("fleet enabled but %s not registered", want)
		}
	}
	if _, ok := snap2.Histograms["lec_fleet_propagate_seconds"]; !ok {
		t.Error("fleet enabled but lec_fleet_propagate_seconds not registered")
	}
	if got := snap2.Gauges["lec_fleet_peers"]; got != 1 {
		t.Errorf("lec_fleet_peers = %v, want 1", got)
	}
}

// TestHandlerRejectsOversizeBodies: each peer-protocol path refuses a body
// past maxWireBytes with 413 instead of buffering it.
func TestHandlerRejectsOversizeBodies(t *testing.T) {
	var node *Node
	for _, n := range newHTTPFleet(t) {
		node = n
	}
	srv := httptest.NewServer(Handler(node))
	defer srv.Close()
	body := `{"from": "` + strings.Repeat("x", maxWireBytes) + `"}`
	for _, path := range []string{lookupPath, propagatePath, membershipPath, handoffPath} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status = %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// TestHTTPTransportBoundsPeerReplies: a peer answering with a reply past
// maxWireBytes fails the call with a typed error rather than being
// decoded.
func TestHTTPTransportBoundsPeerReplies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"node": "`+strings.Repeat("x", maxWireBytes)+`"}`)
	}))
	defer srv.Close()
	tr := &HTTPTransport{}
	_, err := tr.Lookup(context.Background(), srv.Listener.Addr().String(), &LookupRequest{Key: "k"})
	if tooLarge := (*http.MaxBytesError)(nil); !errors.As(err, &tooLarge) {
		t.Fatalf("oversize peer reply: err = %v, want a *http.MaxBytesError", err)
	}
}
