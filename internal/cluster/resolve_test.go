package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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

// A shard owner whose backend fails answers 503, never a list: a failed
// fetch is not cached, not marked queried, and not served to a peer, at the
// owner as at the requester. In a 2-worker fleet over a FaultSim in full
// outage, nothing is cached or charged at either worker and a job fails
// rather than draw from stranded nodes; once the outage ends the owner
// serves the true list.
func TestOwnerResolveDoesNotCacheFailures(t *testing.T) {
	g := testGraph()
	tf := startFleet(t, 2, func() *osn.Network {
		fs, err := osn.NewFaultSim(osn.NewMemBackend(g), osn.FaultConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return osn.NewNetworkOn(osn.NewResilientBackend(fs, osn.ResilientPolicy{
			MaxRetries:      2,
			BaseBackoff:     10 * time.Microsecond,
			MaxBackoff:      100 * time.Microsecond,
			BreakerCooldown: 10 * time.Millisecond,
		}))
	}, serve.Config{Runners: 1, WorkerBudget: 2}, CoordinatorConfig{})
	defer tf.close()
	for _, tw := range tf.wks {
		tw.mgr.Engine().Faults().StartOutage()
	}
	tw := tf.wks[0]
	part := tw.mgr.Engine().Cache().Partition()
	owned := int32(0)
	for !part.Owns(owned) {
		owned++
	}
	resolve := func() (int, ResolveResponse) {
		body, _ := json.Marshal(ResolveRequest{IDs: []int32{owned}})
		resp, err := http.Post(tw.srv.URL+PathResolve, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ResolveResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	if code, out := resolve(); code != http.StatusServiceUnavailable {
		t.Fatalf("resolve of owned node %d in an outage: %d %+v, want 503", owned, code, out)
	}

	spec, err := serve.NormalizeSpec(serve.JobSpec{Design: "srw", Count: 5, Seed: 7, Workers: 2}, tw.mgr.NormEnv())
	if err != nil {
		t.Fatal(err)
	}
	rows, term := tf.readStream(t, tf.submit(t, spec).ID, nil)
	switch term.State {
	case string(serve.JobFailed):
	case string(serve.JobDone):
		want := libRun(t, osn.NewMemBackend(g), spec).rows
		if len(rows) != len(want) {
			t.Fatalf("job completed in an outage with %d rows, want %d", len(rows), len(want))
		}
		for i, r := range rows {
			if r.Node != want[i].Node || r.Steps != want[i].Steps {
				t.Fatalf("job completed in an outage with row %d = (%d, %d), want (%d, %d)",
					i, r.Node, r.Steps, want[i].Node, want[i].Steps)
			}
		}
	default:
		t.Fatalf("terminal line %+v, want done or failed", term)
	}
	for i, tw := range tf.wks {
		if st := tw.mgr.Engine().CacheStats(); st.UniqueNodes != 0 || st.Queries != 0 || st.Calls != 0 {
			t.Fatalf("worker %d cached or charged failed fetches in an outage: %+v", i, st)
		}
	}

	for _, tw := range tf.wks {
		tw.mgr.Engine().Faults().EndOutage()
	}
	code, out := resolve()
	for deadline := time.Now().Add(2 * time.Second); code != http.StatusOK && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond) // the breaker's cooldown
		code, out = resolve()
	}
	if code != http.StatusOK || len(out.Lists) != 1 || len(out.Lists[0]) != g.Degree(int(owned)) || !out.First[0] {
		t.Fatalf("resolve of node %d after the outage: %d %+v, want its %d neighbors as a first access",
			owned, code, out, g.Degree(int(owned)))
	}
}

// bodyTransport answers every request with 200 and the current body, so a
// worker's resolve RPC decodes bytes the test chooses.
type bodyTransport struct{ body []byte }

func (bt *bodyTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(bt.body)),
	}, nil
}

// FuzzResolve feeds arbitrary bytes to both ends of the shard-resolution
// RPC of worker 0 in a 2-worker fleet. As a request body, handleResolve
// must never panic or answer 5xx. As an owner's answer, ResolveShards must
// either reject it or accept it with one list per id and every neighbor id
// on the graph: an accepted list is cached and later walked to. Run the
// fuzzer with
//
//	go test -run '^$' -fuzz FuzzResolve -fuzztime 30s ./internal/cluster
func FuzzResolve(f *testing.F) {
	g := testGraph()
	n := g.NumNodes()
	mgr := serve.NewManager(serve.NewEngine(osn.NewNetwork(g)), serve.Config{Runners: 1, WorkerBudget: 1})
	f.Cleanup(mgr.Close)
	w, err := NewWorker(mgr, WorkerConfig{Coordinator: "http://coordinator", Advertise: "http://w0"})
	if err != nil {
		f.Fatal(err)
	}
	bt := &bodyTransport{}
	w.hc = &http.Client{Transport: bt}
	w.index, w.fleet, w.peers = 0, 2, []string{"http://w0", "http://w1"}
	part := &osn.Partition{Index: 0, Workers: 2, Resolver: w}
	mgr.Engine().Cache().SetPartition(part)
	// The ids worker 1 owns among the first few, as a client would send them.
	var remote []int32
	for v := int32(0); len(remote) < 2; v++ {
		if !part.Owns(v) {
			remote = append(remote, v)
		}
	}
	handler := w.Handler()

	f.Add([]byte(`{"ids":[0,1,2]}`))
	f.Add([]byte(`{"ids":[-1]}`))
	f.Add([]byte(`{"lists":[[1,2],[3]],"first":[true,false]}`))
	f.Add([]byte(`{"lists":[[1],[300]],"first":[true,true]}`))
	f.Add([]byte(`{"lists":[[-1],[2]],"first":[false,true]}`))
	f.Add([]byte(`{"lists":[[1]],"first":[true,true]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathResolve, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("resolve request %q: %d %s", body, rec.Code, rec.Body.Bytes())
		}

		bt.body = body
		lists := make([][]int32, len(remote))
		first := make([]bool, len(remote))
		if w.ResolveShards(context.Background(), remote, lists, first) != nil {
			return
		}
		for i, l := range lists {
			for _, v := range l {
				if v < 0 || int(v) >= n {
					t.Fatalf("accepted answer %q: list %d holds neighbor %d outside [0, %d)", body, i, v, n)
				}
			}
		}
	})
}
