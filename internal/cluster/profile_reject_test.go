package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eva/internal/profile"
	"eva/internal/serve"
	"eva/internal/store"
)

// TestClusterProfileRejectsMalformedPeer: a peer whose /profile report has
// another histogram shape — a different bucket count, or different
// latency_bounds_us — becomes an error entry in the scatter and contributes
// nothing to the merged view, instead of being folded into the wrong
// buckets.
func TestClusterProfileRejectsMalformedPeer(t *testing.T) {
	srv := serve.NewServer(serve.Config{NodeID: "n1", AllowServerKeygen: true, ProfileSampleRate: 1})
	local := srv.Profiles().Report()

	// n2 reports one bucket too few; n3 reports shifted latency bounds.
	short := local
	short.Executions = 5
	short.Buckets = []profile.Bucket{{
		Op: "MULTIPLY", Level: 1, Count: 1, TotalNS: 2e6, MaxNS: 2e6,
		Latency: []uint64{0, 0, 0, 1, 0, 0, 0},
		Sizes:   make([]uint64, len(profile.ByteBounds)+1),
	}}
	short.Buckets[0].Sizes[0] = 1
	shifted := local
	shifted.Executions = 7
	shifted.LatencyBoundsUS = append([]float64{2}, local.LatencyBoundsUS[1:]...)
	peers := map[string]string{}
	for id, rep := range map[string]profile.Report{"n2": short, "n3": shifted} {
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		}))
		t.Cleanup(peer.Close)
		peers[id] = peer.URL
	}
	cl, err := New(srv, Config{Self: "n1", Peers: peers, Store: store.NewMemory(), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cl.Handler())
	t.Cleanup(func() {
		front.Close()
		srv.Close()
		cl.Close()
	})

	resp, err := http.Get(front.URL + "/profile?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter: status %d", resp.StatusCode)
	}
	var scatter struct {
		Nodes  map[string]json.RawMessage `json:"nodes"`
		Merged profile.Report             `json:"merged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scatter); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]string{"n2": "latency_buckets", "n3": "latency_bounds_us"} {
		var entry map[string]any
		if err := json.Unmarshal(scatter.Nodes[id], &entry); err != nil {
			t.Fatalf("node %s entry %s: %v", id, scatter.Nodes[id], err)
		}
		if msg, _ := entry["error"].(string); !strings.Contains(msg, want) {
			t.Errorf("node %s entry = %s; want an error naming %s", id, scatter.Nodes[id], want)
		}
	}
	if m := scatter.Merged; m.Executions != local.Executions || len(m.Buckets) != len(local.Buckets) {
		t.Errorf("merged %d executions / %d buckets; want only n1's %d / %d", m.Executions, len(m.Buckets), local.Executions, len(local.Buckets))
	}
}
