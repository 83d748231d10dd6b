package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/serve"
)

func testGraph() *graph.Graph {
	return gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
}

// testWorker is one in-process fleet worker: a full serve stack behind a
// real HTTP listener, killable mid-request.
type testWorker struct {
	mgr *serve.Manager
	wk  *Worker
	srv *httptest.Server
}

// kill simulates a crashed worker process: heartbeats stop, in-flight
// connections are severed, and new dials are refused. The manager keeps
// running (its goroutines belong to this test process), which only makes
// the test stricter — the fleet must not depend on it.
func (tw *testWorker) kill() {
	tw.wk.Close()
	tw.srv.CloseClientConnections()
	tw.srv.Listener.Close()
}

type testFleet struct {
	co    *Coordinator
	coSrv *httptest.Server
	wks   []*testWorker
}

func (tf *testFleet) close() {
	tf.co.Close()
	tf.coSrv.Close()
	for _, tw := range tf.wks {
		tw.wk.Close()
		tw.srv.CloseClientConnections()
		tw.srv.Close()
		tw.mgr.Close()
	}
}

// startFleet boots a coordinator and n workers over per-worker networks
// built by mkNet (typically sharing one underlying graph) and blocks until
// the fleet is complete and — for n > 1 — every worker has installed its
// cache partition.
func startFleet(t *testing.T, n int, mkNet func() *osn.Network, wcfg serve.Config, ccfg CoordinatorConfig) *testFleet {
	t.Helper()
	ccfg.Workers = n
	if ccfg.HeartbeatTimeout == 0 {
		ccfg.HeartbeatTimeout = 500 * time.Millisecond
	}
	co, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	coSrv := httptest.NewServer(co.Handler())
	tf := &testFleet{co: co, coSrv: coSrv}
	for i := 0; i < n; i++ {
		mgr := serve.NewManager(serve.NewEngine(mkNet()), wcfg)
		var h atomic.Value
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
		wk, err := NewWorker(mgr, WorkerConfig{
			Coordinator:    coSrv.URL,
			Advertise:      srv.URL,
			Name:           fmt.Sprintf("w%d", i),
			HeartbeatEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Store(wk.Handler())
		if err := wk.Start(); err != nil {
			t.Fatal(err)
		}
		tf.wks = append(tf.wks, &testWorker{mgr: mgr, wk: wk, srv: srv})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := co.WorkersLive() == n
		if n > 1 {
			for _, tw := range tf.wks {
				if tw.mgr.Engine().Cache().Partition() == nil {
					ready = false
				}
			}
		}
		if ready {
			return tf
		}
		if time.Now().After(deadline) {
			tf.close()
			t.Fatal("fleet did not become complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submit posts a job spec to the coordinator and returns its status.
func (tf *testFleet) submit(t *testing.T, spec serve.JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(tf.coSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b := readBody(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamRow is one relayed NDJSON line.
type streamRow struct {
	Done   bool   `json:"done"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
	I      *int   `json:"i"`
	Node   int    `json:"node"`
	Steps  int    `json:"steps"`
}

// readStream consumes a job's stream from the coordinator, invoking onRow
// after each sample row, and returns the rows and the terminal line.
func (tf *testFleet) readStream(t *testing.T, id string, onRow func(n int)) ([]streamRow, streamRow) {
	t.Helper()
	resp, err := http.Get(tf.coSrv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	var rows []streamRow
	for {
		var row streamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("stream died after %d rows: %v", len(rows), err)
		}
		if row.Done {
			return rows, row
		}
		rows = append(rows, row)
		if onRow != nil {
			onRow(len(rows))
		}
	}
}

// A worker-side queue_full shed must pass through the coordinator verbatim:
// same status, same typed reason, same Retry-After — and exactly once (no
// coordinator shed stacked on top).
func TestShedForwardedVerbatim(t *testing.T) {
	g := testGraph()
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 2*time.Millisecond, 0, 8))
	}
	tf := startFleet(t, 1, mkNet, serve.Config{Runners: 1, QueueDepth: 1, WorkerBudget: 2}, CoordinatorConfig{})
	defer tf.close()

	slow := serve.JobSpec{Type: serve.TypeSample, Count: 200, Seed: 3, Workers: 1}
	tf.submit(t, slow) // running
	tf.submit(t, slow) // queued, fills the depth-1 queue

	body, _ := json.Marshal(slow)
	resp, err := http.Post(tf.coSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %s", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want the worker's own hint \"1\"", ra)
	}
	var shed struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Error != "queue_full" || shed.RetryAfterMS != 1000 {
		t.Fatalf("shed body not forwarded verbatim: %+v", shed)
	}
	if tf.co.shedForwarded.Load() != 1 {
		t.Fatalf("shedForwarded = %d, want 1", tf.co.shedForwarded.Load())
	}
}

// With no live workers the coordinator sheds with its own typed reason.
func TestNoWorkersShed(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{Workers: 2, HeartbeatTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	// Not ready before any worker registers.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet: %s", resp.Status)
	}

	body, _ := json.Marshal(serve.JobSpec{Type: serve.TypeSample, Count: 5, Seed: 1, Workers: 1})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %s", resp.Status)
	}
	var shed struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&shed)
	if shed.Error != ShedNoWorkers {
		t.Fatalf("shed reason %q, want %q", shed.Error, ShedNoWorkers)
	}
}

// A repeat submission through a 3-worker fleet must be answered by the
// coordinator's result cache: no worker dispatch, an identical replayed
// stream, frozen worker meters, and the hit visible in the cluster summary.
func TestFleetRepeatServedFromCoordinatorCache(t *testing.T) {
	g := testGraph()
	tf := startFleet(t, 3, func() *osn.Network { return osn.NewNetwork(g) },
		serve.Config{Runners: 1, WorkerBudget: 4}, CoordinatorConfig{})
	defer tf.close()

	spec := serve.JobSpec{Type: serve.TypeSample, Count: 30, Seed: 13, Workers: 2}
	st := tf.submit(t, spec)
	if st.Digest == "" {
		t.Fatal("accepted status carries no digest")
	}
	rowsA, termA := tf.readStream(t, st.ID, nil)
	if termA.State != string(serve.JobDone) || termA.Cached {
		t.Fatalf("live run terminal: %+v", termA)
	}

	// The cache entry is published before the terminal line reaches the
	// client, but the norm env arrives on a heartbeat — wait for adoption.
	deadline := time.Now().Add(10 * time.Second)
	for tf.co.normEnv.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never adopted a worker norm env")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tf.co.ResultCacheStats().Entries == 0 {
		t.Fatal("completed job not memoized coordinator-side")
	}

	before := make([]WorkerStats, len(tf.wks))
	for i, tw := range tf.wks {
		before[i] = tw.wk.Stats()
	}

	// Resubmit with equivalent-but-different spelling: the coordinator must
	// canonicalize fleet-side and answer without dispatching.
	st2 := tf.submit(t, serve.JobSpec{Type: serve.TypeSample, Design: "SRW",
		Count: 30, Seed: 13, Workers: 2, DeadlineMS: 60000})
	if st2.State != serve.JobDone {
		t.Fatalf("repeat not instantly terminal: %+v", st2)
	}
	if st2.Result == nil || !st2.Result.Cached || st2.Result.Queries != 0 {
		t.Fatalf("repeat result: %+v", st2.Result)
	}
	if st2.Digest != st.Digest {
		t.Fatalf("digest drifted: live %s repeat %s", st.Digest, st2.Digest)
	}
	if st2.Worker != -1 || st2.Attempts != 0 {
		t.Fatalf("cached repeat was placed on a worker: %+v", st2)
	}

	rowsB, termB := tf.readStream(t, st2.ID, nil)
	if termB.State != string(serve.JobDone) || !termB.Cached {
		t.Fatalf("cached terminal line: %+v", termB)
	}
	if len(rowsB) != len(rowsA) {
		t.Fatalf("row count: cached %d live %d", len(rowsB), len(rowsA))
	}
	for i := range rowsA {
		if *rowsB[i].I != *rowsA[i].I || rowsB[i].Node != rowsA[i].Node || rowsB[i].Steps != rowsA[i].Steps {
			t.Fatalf("row %d differs: cached (%d,%d,%d) live (%d,%d,%d)",
				i, *rowsB[i].I, rowsB[i].Node, rowsB[i].Steps,
				*rowsA[i].I, rowsA[i].Node, rowsA[i].Steps)
		}
	}

	// No worker saw the repeat: every meter a dispatched job would move —
	// samples produced, neighbor-cache calls, fleet charges — is frozen.
	for i, tw := range tf.wks {
		after := tw.wk.Stats()
		if after.Samples != before[i].Samples || after.Calls != before[i].Calls ||
			after.Queries != before[i].Queries || after.OwnedUnique != before[i].OwnedUnique {
			t.Fatalf("worker %d meters moved on a cached hit: before %+v after %+v", i, before[i], after)
		}
	}

	sum := tf.co.Summary(true)
	if sum.Cache.Hits < 1 || sum.CacheHits < 1 {
		t.Fatalf("summary does not show the hit: %+v", sum.Cache)
	}
	if sum.Cache.QueriesSaved <= 0 {
		t.Fatalf("queries_saved = %d, want > 0", sum.Cache.QueriesSaved)
	}
}

// A hand-off may only go to a worker that digests the job as its first
// worker did. A worker of another draw version or graph would draw another
// stream, and relaying it after the first worker's rows would splice two
// streams; with no matching worker left, the job fails instead.
func TestHandoffRefusesWorkerOfAnotherStream(t *testing.T) {
	var built atomic.Int64
	mkNet := func() *osn.Network { // each worker its own 300-node graph
		g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42+built.Add(1))))
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8))
	}
	tf := startFleet(t, 2, mkNet, serve.Config{Runners: 1, WorkerBudget: 4},
		CoordinatorConfig{HeartbeatTimeout: 300 * time.Millisecond})
	defer tf.close()
	st := tf.submit(t, serve.JobSpec{Count: 20, Seed: 7})
	rows, term := tf.readStream(t, st.ID, func(n int) {
		if n == 10 {
			tf.wks[st.Worker].kill()
		}
	})
	final := jobStatus(t, tf.coSrv.URL, st.ID)
	if term.State != string(serve.JobFailed) || final.FailureReason != ReasonWorkerLost ||
		!strings.Contains(final.Error, "digest") || len(rows) >= 20 {
		t.Fatalf("after %d rows: terminal %+v, status %+v; want a worker_lost failure over the digest", len(rows), term, final.JobStatus)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		jobs := tf.wks[1-st.Worker].mgr.List()
		if len(jobs) == 1 && jobs[0].State == serve.JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refused worker holds %+v, want its one job cancelled", jobs)
		}
	}
}
