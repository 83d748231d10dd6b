package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
)

// Chaos tests for the fault-injected service path: the engine over a
// ResilientBackend(FaultSim(mem)) chain must fail typed and keep partial
// progress when the backend goes down mid-job, and recover — breaker
// half-open to closed, readiness back to 200 — once the outage ends. That
// absorbed faults change no sample or charge is checked by the faults rows
// of TestConformance (internal/cluster).

// chaosPolicy keeps retries near-instant so chaos tests stay fast.
func chaosPolicy() osn.ResilientPolicy {
	return osn.ResilientPolicy{
		MaxRetries:      6,
		BaseBackoff:     10 * time.Microsecond,
		MaxBackoff:      100 * time.Microsecond,
		BreakerCooldown: 10 * time.Millisecond,
	}
}

// chaosNetwork builds the same graph as testNetwork but served through a
// seeded fault injector under the resilience middleware.
func chaosNetwork(t *testing.T, cfg osn.FaultConfig, pol osn.ResilientPolicy) (*osn.Network, *osn.FaultSim, *osn.ResilientBackend) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	fs, err := osn.NewFaultSim(osn.NewMemBackend(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := osn.NewResilientBackend(fs, pol)
	return osn.NewNetworkOn(res), fs, res
}

func runSpec(t *testing.T, m *Manager, spec JobSpec) JobStatus {
	t.Helper()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitJob(t, j)
}

// TestChaosMidJobOutage: a full outage mid-job fails the job with the typed
// backend_unavailable reason, keeps the samples produced before the failure
// as a partial result, charges nothing after the cancellation, and the
// daemon recovers once the outage ends.
func TestChaosMidJobOutage(t *testing.T) {
	pol := chaosPolicy()
	pol.MaxRetries = 2
	// Simulated remote latency under the injector: without it a mem-backed
	// job caches the whole 300-node graph in microseconds and finishes
	// before the outage can land mid-run.
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 4)
	fs, err := osn.NewFaultSim(sim, osn.FaultConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := osn.NewResilientBackend(fs, pol)
	eng := NewEngine(osn.NewNetworkOn(res))
	m := NewManager(eng, Config{Runners: 1, WorkerBudget: 4})
	defer m.Close()

	// The outage job: a large count over fresh seeds, with the backend cut
	// mid-run. NoCrawl makes every access go through the live backend.
	spec := JobSpec{Type: TypeSample, Count: 500, Seed: 1234, Workers: 2, NoCrawl: true}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the backend once the job has streamed some samples.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().Samples < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if j.Status().Samples < 5 {
		t.Fatalf("job produced only %d samples before the cut", j.Status().Samples)
	}
	fs.StartOutage()
	st := waitJob(t, j)
	fleetAfterFail := eng.CacheStats().Queries

	if st.State != JobFailed {
		t.Fatalf("state %v, want failed (status %+v)", st.State, st)
	}
	if st.FailureReason != ReasonBackendUnavailable {
		t.Fatalf("failure reason %q, want %q (error %q)", st.FailureReason, ReasonBackendUnavailable, st.Error)
	}
	if !strings.Contains(st.Error, "backend unavailable") {
		t.Fatalf("error %q does not carry the typed cause", st.Error)
	}
	// Partial progress: the streamed samples and the partial result survive.
	if st.Samples == 0 {
		t.Fatal("pre-failure samples were discarded")
	}
	if st.Result == nil || !st.Result.Partial {
		t.Fatalf("partial result missing: %+v", st.Result)
	}
	if st.Result.Samples != len(st.Result.Nodes) || st.Result.Samples >= spec.Count {
		t.Fatalf("partial result has %d samples (nodes %d) of %d requested", st.Result.Samples, len(st.Result.Nodes), spec.Count)
	}

	// Zero charges after cancellation: the fleet meter must not move while
	// the backend stays down and no job runs.
	time.Sleep(10 * time.Millisecond)
	if after := eng.CacheStats().Queries; after != fleetAfterFail {
		t.Fatalf("fleet meter moved %d -> %d after the failed job", fleetAfterFail, after)
	}

	// Recovery: outage ends, breaker half-open probe succeeds, jobs run again.
	fs.EndOutage()
	time.Sleep(2 * pol.BreakerCooldown)
	if st := runSpec(t, m, JobSpec{Type: TypeSample, Count: 5, Seed: 3}); st.State != JobDone {
		t.Fatalf("post-outage job: %+v", st)
	}
	if bs := res.BreakerState(); bs != osn.BreakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", bs)
	}
}

// TestChaosDeadlineExceeded: deadline_ms bounds the run phase; an overrun
// fails the job with the deadline_exceeded reason and keeps partial samples.
func TestChaosDeadlineExceeded(t *testing.T) {
	// A slow backend (simulated latency) makes the deadline bite reliably.
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 2*time.Millisecond, 0, 4)
	m := NewManager(NewEngine(osn.NewNetworkOn(sim)), Config{Runners: 1, WorkerBudget: 4})
	defer m.Close()

	st := runSpec(t, m, JobSpec{Type: TypeSample, Count: 500, Seed: 1, NoCrawl: true, DeadlineMS: 50})
	if st.State != JobFailed {
		t.Fatalf("state %v, want failed (%+v)", st.State, st)
	}
	if st.FailureReason != ReasonDeadlineExceeded {
		t.Fatalf("failure reason %q, want %q (error %q)", st.FailureReason, ReasonDeadlineExceeded, st.Error)
	}
	if st.Result == nil || !st.Result.Partial {
		t.Fatalf("deadline overrun lost its partial result: %+v", st.Result)
	}
}

// TestChaosSpecValidation: negative deadlines are rejected at admission.
func TestChaosSpecValidation(t *testing.T) {
	m := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1})
	defer m.Close()
	if _, err := m.Submit(JobSpec{DeadlineMS: -1}); err == nil {
		t.Fatal("negative deadline_ms accepted")
	}
}

// TestChaosReadiness: /readyz tracks the breaker — 200 while closed, 503
// while an outage holds it open, 200 again after recovery — and /livez
// stays 200 throughout. Draining flips readiness permanently.
func TestChaosReadiness(t *testing.T) {
	pol := chaosPolicy()
	pol.MaxRetries = 1
	pol.BreakerThreshold = 2
	pol.BreakerCooldown = 50 * time.Millisecond
	net, fs, res := chaosNetwork(t, osn.FaultConfig{Seed: 1}, pol)
	m := NewManager(NewEngine(net), Config{Runners: 1, WorkerBudget: 4})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("initial readiness: %d %v", code, body)
	}
	if code, _ := get("/livez"); code != http.StatusOK {
		t.Fatalf("initial liveness: %d", code)
	}

	// Trip the breaker with a failing job under a manual outage.
	fs.StartOutage()
	st := runSpec(t, m, JobSpec{Type: TypeSample, Count: 10, Seed: 1, NoCrawl: true})
	if st.State != JobFailed {
		t.Fatalf("outage job: %+v", st)
	}
	if bs := res.BreakerState(); bs != osn.BreakerOpen {
		t.Fatalf("breaker %v after outage job, want open", bs)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["breaker"] != "open" {
		t.Fatalf("open-breaker readiness: %d %v", code, body)
	}
	if code, _ := get("/livez"); code != http.StatusOK {
		t.Fatalf("liveness during outage: %d", code)
	}
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("metrics during outage: %d", code)
	}

	// Recovery: outage ends, a successful probe closes the breaker.
	fs.EndOutage()
	time.Sleep(pol.BreakerCooldown + 5*time.Millisecond)
	if st := runSpec(t, m, JobSpec{Type: TypeSample, Count: 3, Seed: 2}); st.State != JobDone {
		t.Fatalf("recovery job: %+v", st)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("post-recovery readiness: %d %v", code, body)
	}

	// Draining: Close flips readiness to 503 while liveness stays 200.
	m.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("draining readiness: %d %v", code, body)
	}
	if code, _ := get("/livez"); code != http.StatusOK {
		t.Fatalf("liveness while draining: %d", code)
	}
}

// TestChaosStreamCarriesFailureReason: the NDJSON terminal line of a failed
// job carries the typed failure_reason.
func TestChaosStreamCarriesFailureReason(t *testing.T) {
	pol := chaosPolicy()
	pol.MaxRetries = 1
	net, fs, _ := chaosNetwork(t, osn.FaultConfig{Seed: 1}, pol)
	m := NewManager(NewEngine(net), Config{Runners: 1, WorkerBudget: 4})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	fs.StartOutage()
	j, err := m.Submit(JobSpec{Type: TypeSample, Count: 5, Seed: 1, NoCrawl: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last map[string]any
	for dec.More() {
		last = nil
		if err := dec.Decode(&last); err != nil {
			break
		}
	}
	if last == nil || last["done"] != true {
		t.Fatalf("no terminal line: %v", last)
	}
	if last["failure_reason"] != ReasonBackendUnavailable {
		t.Fatalf("terminal line %v lacks failure_reason=%s", last, ReasonBackendUnavailable)
	}
}
