package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/osn"
	"repro/internal/serve"
)

// The resolve RPC takes ids off the wire: ids outside the graph or outside
// the worker's partition are rejected with 400 (never indexed), and owned
// in-range ids are answered.
func TestResolveRejectsUntrustedIDs(t *testing.T) {
	g := testGraph()
	tf := startFleet(t, 2, func() *osn.Network { return osn.NewNetwork(g) },
		serve.Config{Runners: 1, WorkerBudget: 2}, CoordinatorConfig{})
	defer tf.close()
	tw := tf.wks[0]
	part := tw.mgr.Engine().Cache().Partition()
	var owned, foreign int32 = -1, -1
	for v := int32(0); v < int32(g.NumNodes()) && (owned < 0 || foreign < 0); v++ {
		if part.Owns(v) {
			owned = v
		} else {
			foreign = v
		}
	}

	for _, tc := range []struct {
		name string
		ids  []int32
		code int
	}{
		{"negative", []int32{-1}, http.StatusBadRequest},
		{"one past the end", []int32{int32(g.NumNodes())}, http.StatusBadRequest},
		{"far out of range", []int32{owned, 1 << 30}, http.StatusBadRequest},
		{"not owned", []int32{owned, foreign}, http.StatusBadRequest},
		{"owned", []int32{owned}, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(ResolveRequest{IDs: tc.ids})
			resp, err := http.Post(tw.srv.URL+PathResolve, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("resolve %v: %v", tc.ids, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("resolve %v: %s, want %d", tc.ids, resp.Status, tc.code)
			}
			if tc.code != http.StatusOK {
				return
			}
			var out ResolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Lists) != 1 || len(out.Lists[0]) != g.Degree(int(owned)) {
				t.Fatalf("resolve %v answered %+v, want node %d's %d neighbors",
					tc.ids, out, owned, g.Degree(int(owned)))
			}
		})
	}
}
