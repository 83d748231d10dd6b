package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
)

func testServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	eng := NewEngine(osn.NewNetwork(g))
	m := NewManager(eng, Config{Runners: 2, WorkerBudget: 4})
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() { srv.Close(); m.Close() })
	return srv, m
}

func postJob(t *testing.T, srv *httptest.Server, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad status JSON %q: %v", body, err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// Submit over HTTP, stream the accepted samples as NDJSON, and check the
// final status: the stream replays the full sequence plus a terminal line.
func TestHTTPSubmitAndStream(t *testing.T) {
	srv, _ := testServer(t)
	st := postJob(t, srv, `{"count": 12, "seed": 3, "workers": 2}`)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var nodes []int
	var final map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatalf("bad terminal line %s: %v", line, err)
			}
			continue
		}
		var s Sample
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad sample line %s: %v", line, err)
		}
		nodes = append(nodes, s.Node)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 12 {
		t.Fatalf("streamed %d samples, want 12", len(nodes))
	}
	if final == nil || final["state"] != string(JobDone) {
		t.Fatalf("terminal line: %v", final)
	}

	// Status must agree with the stream — and a second stream of the
	// finished job replays the identical sequence.
	var got JobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &got); code != http.StatusOK {
		t.Fatalf("GET status: %d", code)
	}
	if got.State != JobDone || len(got.Result.Nodes) != 12 {
		t.Fatalf("status: %+v", got)
	}
	for i, v := range got.Result.Nodes {
		if nodes[i] != v {
			t.Fatalf("stream[%d]=%d but result[%d]=%d", i, nodes[i], i, v)
		}
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	srv, _ := testServer(t)
	st := postJob(t, srv, `{"count": 5, "seed": 2}`)
	deadline := time.Now().Add(30 * time.Second)
	var got JobStatus
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &got)
		if got.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var hz map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz["ok"] != true || hz["graph_nodes"].(float64) != 300 {
		t.Fatalf("healthz: %v", hz)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"walknotwait_jobs_submitted_total 1",
		"walknotwait_samples_total 5",
		"walknotwait_queries_charged_total",
		"walknotwait_cache_hit_ratio",
		`walknotwait_stage_seconds_bucket{stage="run",le="+Inf"}`,
		`walknotwait_jobs_finished_total{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPCancelAndErrors(t *testing.T) {
	srv, m := testServer(t)

	// Unknown job.
	if code := getJSON(t, srv.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	// Bad spec.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type": "bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	// DELETE cancels.
	st := postJob(t, srv, `{"count": 100000, "seed": 8}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	job, _ := m.Get(st.ID)
	final := waitJob(t, job)
	if final.State != JobCancelled {
		t.Fatalf("state after DELETE: %s", final.State)
	}
}

// Walk counts out of [0, core.MaxWalksPerCandidate] are refused with 400
// at admission: no job is created, so the kernel never allocates lanes for
// them (a budget of 1e8 would be about 11 GB of lanes per 8 candidates).
func TestHTTPRejectsOversizedWalkCounts(t *testing.T) {
	srv, m := testServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range []string{
		`{"variance_budget": 100000000}`,
		`{"variance_budget": 1025}`,
		`{"variance_budget": -1}`,
		`{"backward_reps": 100000000}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "out of range") {
			t.Errorf("%s: %d %s, want 400 out of range", spec, resp.StatusCode, body)
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(m.List()); n != 0 {
		t.Fatalf("%d jobs created, want none", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("rejecting the specs allocated %d bytes", grew)
	}
	postJob(t, srv, `{"count": 1, "variance_budget": 1024, "backward_reps": 1024}`)
}

// Overload shedding over HTTP: a full queue answers a typed 503 — machine-
// readable reason, Retry-After header, retry_after_ms body — and the shed
// counter moves; draining answers the same shape with its own reason.
func TestHTTPQueueFullSheds503(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, rand.New(rand.NewSource(7)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8)
	m := NewManager(NewEngine(osn.NewNetworkOn(sim)),
		Config{Runners: 1, QueueDepth: 1, WorkerBudget: 2})
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() { srv.Close(); m.Close() })

	// Pin the runner on a long job, then fill the queue.
	blocker := postJob(t, srv, `{"count": 1000000, "seed": 1}`)
	bj, _ := m.Get(blocker.ID)
	deadline := time.Now().Add(10 * time.Second)
	for bj.Status().State == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	postJob(t, srv, `{"count": 1, "seed": 2}`)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"count": 1, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var shed struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("shed body %q: %v", body, err)
	}
	if shed.Error != "queue_full" || shed.RetryAfterMS != 1000 {
		t.Fatalf("shed body %+v, want {queue_full 1000}", shed)
	}

	var buf bytes.Buffer
	m.WriteProm(&buf)
	if !strings.Contains(buf.String(), "walknotwait_jobs_shed_total 1") {
		t.Fatalf("shed counter missing or wrong:\n%s", grepLine(buf.String(), "jobs_shed"))
	}

	m.Cancel(blocker.ID)
	m.Close() // draining: same typed shape, different reason
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"count": 1, "seed": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &shed); err != nil || shed.Error != "draining" {
		t.Fatalf("draining body %q (%v), want error=draining", body, err)
	}
}

// grepLine returns the lines of s containing sub (test-failure context).
func grepLine(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
