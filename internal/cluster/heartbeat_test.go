package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// FuzzHeartbeat feeds arbitrary bytes to the coordinator's register and
// heartbeat endpoints, in that order, so one body that names an addr both
// claims a slot and heartbeats it. Neither may panic or answer 5xx, and a
// heartbeat whose Stats.Norm has MaxWorkersPerJob < 1 or NumNodes < 1 must
// be refused with 400, never adopted: such an environment would clamp
// every spec to 0 workers, and the hand-off digest check would then refuse
// every worker. Run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzHeartbeat -fuzztime 30s ./internal/cluster
func FuzzHeartbeat(f *testing.F) {
	co, err := NewCoordinator(CoordinatorConfig{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(co.Close)
	handler := co.Handler()

	f.Add([]byte(`{"addr":"http://w0"}`))
	f.Add([]byte(`{"index":0,"addr":"http://w0","stats":{"queries":3,"norm":{"graph_id":"g","num_nodes":300,"default_start":7,"default_walklen":15,"max_workers_per_job":4}}}`))
	f.Add([]byte(`{"index":0,"addr":"http://w0","stats":{"norm":{"graph_id":"g","num_nodes":300,"max_workers_per_job":0}}}`))
	f.Add([]byte(`{"index":1,"addr":"http://w1","stats":{"norm":{"num_nodes":0,"max_workers_per_job":4}}}`))
	f.Add([]byte(`{"index":-1,"addr":""}`))
	f.Add([]byte(`{"index":7,"addr":"http://w9","stats":{"norm":null}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(path string) int {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body.Bytes())
			}
			return rec.Code
		}
		post(PathRegister)
		code := post(PathHeartbeat)

		invalid := func(env *serve.NormEnv) bool {
			return env != nil && (env.MaxWorkersPerJob < 1 || env.NumNodes < 1)
		}
		var req HeartbeatRequest
		if json.Unmarshal(body, &req) == nil && invalid(req.Stats.Norm) && code != http.StatusBadRequest {
			t.Fatalf("heartbeat with norm %+v answered %d, want 400", *req.Stats.Norm, code)
		}
		if env := co.normEnv.Load(); invalid(env) {
			t.Fatalf("heartbeat %q stored norm %+v", body, *env)
		}
	})
}
