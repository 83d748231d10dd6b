package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
)

func testNetwork(t *testing.T) *osn.Network {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	return osn.NewNetwork(g)
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	return JobStatus{}
}

// Concurrent jobs on one engine each bill the charges of their own clients,
// so their Queries add up to the fleet meter's growth exactly — with
// sequential and parallel jobs interleaving on the shared cache.
func TestConcurrentJobChargesSumToFleetMeter(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 200*time.Microsecond, 0, 8)
	eng := NewEngine(osn.NewNetworkOn(sim))
	m := NewManager(eng, Config{Runners: 4, WorkerBudget: 8, CacheBytes: -1})
	defer m.Close()

	before := eng.CacheStats().Queries
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := m.Submit(JobSpec{Type: TypeSample, Count: 12, Seed: int64(100 + i), Workers: 1 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var sum int64
	for _, j := range jobs {
		st := waitJob(t, j)
		if st.State != JobDone {
			t.Fatalf("job %s: %+v", j.ID(), st)
		}
		sum += st.Result.Queries
	}
	if grown := eng.CacheStats().Queries - before; sum != grown || sum == 0 {
		t.Fatalf("Σ per-job queries %d, fleet meter grew %d", sum, grown)
	}
}

// Cancelling a running job must flip it to cancelled and stop fleet-meter
// growth within one batch.
func TestCancelStopsCharging(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, rand.New(rand.NewSource(7)))
	// Simulated remote latency slows the job enough to cancel it mid-run.
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 500*time.Microsecond, 0, 8)
	eng := NewEngine(osn.NewNetworkOn(sim))
	m := NewManager(eng, Config{Runners: 1, WorkerBudget: 4})
	defer m.Close()

	job, err := m.Submit(JobSpec{Count: 100000, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Let it produce at least one sample so cancellation lands mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for job.Status().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if job.Status().Samples == 0 {
		t.Fatal("job produced no samples before deadline")
	}
	m.Cancel(job.ID())
	st := waitJob(t, job)
	if st.State != JobCancelled {
		t.Fatalf("state %s, want cancelled (err %q)", st.State, st.Error)
	}
	// The fleet meter must be quiet once the job has settled.
	q0 := eng.CacheStats().Queries
	time.Sleep(100 * time.Millisecond)
	if q1 := eng.CacheStats().Queries; q1 != q0 {
		t.Fatalf("queries still growing after cancel: %d -> %d", q0, q1)
	}
}

// Admission control: with the runner pinned on a long job, the bounded queue
// accepts exactly QueueDepth more submissions and sheds the rest.
func TestAdmissionControl(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, rand.New(rand.NewSource(7)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8)
	eng := NewEngine(osn.NewNetworkOn(sim))
	m := NewManager(eng, Config{Runners: 1, QueueDepth: 2, WorkerBudget: 2})
	defer m.Close()

	blocker, err := m.Submit(JobSpec{Count: 1000000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner has popped the blocker, so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for blocker.Status().State == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if blocker.Status().State != JobRunning {
		t.Fatalf("blocker state %s", blocker.Status().State)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(JobSpec{Count: 1, Seed: int64(10 + i)}); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(JobSpec{Count: 1, Seed: 99}); err != ErrQueueFull {
		t.Fatalf("overflow submit: err %v, want ErrQueueFull", err)
	}
	m.Cancel(blocker.ID())
}

// Worker counts are clamped to the per-job budget at admission, and the
// normalized spec (the determinism contract) reflects the clamp.
func TestWorkerClamp(t *testing.T) {
	eng := NewEngine(testNetwork(t))
	m := NewManager(eng, Config{Runners: 1, WorkerBudget: 4, MaxWorkersPerJob: 3})
	defer m.Close()
	job, err := m.Submit(JobSpec{Count: 5, Seed: 2, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Spec().Workers; got != 3 {
		t.Fatalf("normalized workers %d, want 3", got)
	}
	if st := waitJob(t, job); st.State != JobDone {
		t.Fatalf("job: %+v", st)
	}
}

// estimate-mean jobs attach the design-appropriate mean estimate.
func TestEstimateMeanJob(t *testing.T) {
	net := testNetwork(t)
	eng := NewEngine(net)
	m := NewManager(eng, Config{Runners: 1})
	defer m.Close()
	job, err := m.Submit(JobSpec{Type: TypeEstimateMean, Count: 50, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != JobDone || st.Result.Estimate == nil {
		t.Fatalf("job: %+v", st)
	}
	truth := net.Graph().AvgDegree()
	got := *st.Result.Estimate
	if got <= 0 || got > 10*truth {
		t.Fatalf("estimate %v wildly off truth %v", got, truth)
	}
}

// walk-path jobs stream every visited node and respect cancellation.
func TestWalkPathJob(t *testing.T) {
	eng := NewEngine(testNetwork(t))
	m := NewManager(eng, Config{Runners: 1})
	defer m.Close()
	job, err := m.Submit(JobSpec{Type: TypeWalkPath, Count: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != JobDone || st.Samples != 25 {
		t.Fatalf("job: %+v", st)
	}
}

// TestRetentionEviction checks the terminal-job TTL: after a sweep past
// the retention window, finished job records are gone from Get/List and
// counted in the eviction meter, while fresher records survive. Queued or
// running work is never the sweeper's business — only terminal states
// match.
func TestRetentionEviction(t *testing.T) {
	eng := NewEngine(testNetwork(t))
	m := NewManager(eng, Config{Runners: 1, WorkerBudget: 2,
		Retention: time.Hour, SweepInterval: time.Hour})
	defer m.Close()

	j1, err := m.Submit(JobSpec{Count: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	j2, err := m.Submit(JobSpec{Count: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)

	if got := m.RetainedJobs(); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	// Sweep "now": nothing is older than an hour yet.
	if n := m.Sweep(time.Now()); n != 0 {
		t.Fatalf("premature sweep evicted %d jobs", n)
	}
	// Sweep from two hours in the future: both terminal records expire.
	if n := m.Sweep(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("sweep evicted %d jobs, want 2", n)
	}
	if _, ok := m.Get(j1.ID()); ok {
		t.Fatalf("evicted job %s still resolvable", j1.ID())
	}
	if got := m.RetainedJobs(); got != 0 {
		t.Fatalf("retained after sweep = %d, want 0", got)
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("List after sweep has %d entries, want 0", got)
	}
	if got := m.met.jobsEvicted.Load(); got != 2 {
		t.Fatalf("eviction meter = %d, want 2", got)
	}

	// New submissions after a sweep get fresh ids and full lifecycle.
	j3, err := m.Submit(JobSpec{Count: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j3)
	if st.State != JobDone {
		t.Fatalf("post-sweep job ended %q: %s", st.State, st.Error)
	}
	if got := m.RetainedJobs(); got != 1 {
		t.Fatalf("retained after new job = %d, want 1", got)
	}
}

// TestRetentionDisabled checks that a negative retention turns the
// sweeper off entirely: Sweep never evicts.
func TestRetentionDisabled(t *testing.T) {
	eng := NewEngine(testNetwork(t))
	m := NewManager(eng, Config{Runners: 1, WorkerBudget: 2, Retention: -1})
	defer m.Close()
	j, err := m.Submit(JobSpec{Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if n := m.Sweep(time.Now().Add(1000 * time.Hour)); n != 0 {
		t.Fatalf("disabled retention evicted %d jobs", n)
	}
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("job record lost despite disabled retention")
	}
}
