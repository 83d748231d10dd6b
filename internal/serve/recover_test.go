package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/osn"
)

// allRows returns a terminal job's full client-visible sample stream.
func allRows(t *testing.T, j *Job) []Sample {
	t.Helper()
	rows, terminal := j.waitSamples(context.Background(), 0)
	if !terminal {
		t.Fatalf("job %s not terminal", j.ID())
	}
	return rows
}

func sameRows(t *testing.T, got, want []Sample, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs: got %+v want %+v", what, i, got[i], want[i])
		}
	}
}

// crash detaches the manager's journal mid-flight — from the journal's point
// of view the process died at that instant (no terminal records, no graceful
// sync) — and returns after releasing the journal's file handle. Appends
// flush to the OS on every write, so nothing buffered is lost, exactly like
// a kill -9.
func crash(t *testing.T, m *Manager) {
	t.Helper()
	jl := m.jl.Swap(nil)
	if jl == nil {
		t.Fatal("manager had no journal to crash")
	}
	jl.Close()
	m.Close()
}

// Terminal jobs rehydrate from the journal with their identical id, result,
// and sample rows, servable with zero new walk steps and zero new query
// charges.
func TestRecoverRehydratesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	m := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4, Journal: jl})

	specs := []JobSpec{
		{Type: TypeSample, Count: 15, Seed: 5, Workers: 2},
		{Type: TypeWalkPath, Count: 10, Seed: 9},
	}
	var ids []string
	var wantRows [][]Sample
	var wantSt []JobStatus
	for _, spec := range specs {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != JobDone {
			t.Fatalf("job %s: %+v", j.ID(), st)
		}
		ids = append(ids, j.ID())
		wantRows = append(wantRows, allRows(t, j))
		wantSt = append(wantSt, st)
	}
	m.Close() // graceful: terminal records flushed and fsynced

	eng := NewEngine(testNetwork(t))
	re := NewManager(eng, Config{Runners: 1, WorkerBudget: 4,
		Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	defer re.Close()
	resumed, restarted, rehydrated := re.RecoveredCounts()
	if resumed != 0 || restarted != 0 || rehydrated != 2 {
		t.Fatalf("recovered (resumed=%d, restarted=%d, rehydrated=%d), want (0, 0, 2)", resumed, restarted, rehydrated)
	}
	if re.Recovering() {
		t.Fatal("rehydration-only boot reports recovering")
	}
	for i, id := range ids {
		j, ok := re.Get(id)
		if !ok {
			t.Fatalf("rehydrated job %s not servable", id)
		}
		st := j.Status()
		if st.State != JobDone || st.Samples != wantSt[i].Samples {
			t.Fatalf("rehydrated %s status: %+v, want %+v", id, st, wantSt[i])
		}
		if st.Result == nil || st.Result.Samples != wantSt[i].Result.Samples ||
			st.Result.Queries != wantSt[i].Result.Queries ||
			st.Result.FleetQueries != wantSt[i].Result.FleetQueries ||
			len(st.Result.Nodes) != len(wantSt[i].Result.Nodes) {
			t.Fatalf("rehydrated %s result: %+v, want %+v", id, st.Result, wantSt[i].Result)
		}
		sameRows(t, allRows(t, j), wantRows[i], "rehydrated stream "+id)
	}
	// Serving rehydrated jobs walks nothing: the new engine is never touched.
	if q := eng.CacheStats().Queries; q != 0 {
		t.Fatalf("rehydrated serving charged %d queries, want 0", q)
	}
	// Id continuity: a new submission must not collide with recovered ids.
	j, err := re.Submit(JobSpec{Count: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if j.ID() == id {
			t.Fatalf("new job reused recovered id %s", id)
		}
	}
}

// The resume property: kill the journal mid-stream, reboot, and the resumed
// job's full client-visible stream — indexes, nodes, steps, and costs — is
// bit-identical to an uninterrupted run on a cold engine.
func TestResumeStreamBitIdentical(t *testing.T) {
	spec := JobSpec{Type: TypeSample, Count: 40, Seed: 5, Workers: 2}

	// Reference: uninterrupted run, cold engine, no journal.
	ref := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4})
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, rj); st.State != JobDone {
		t.Fatalf("reference: %+v", st)
	}
	want := allRows(t, rj)
	ref.Close()

	// Crashed run: journal the first samples, then die mid-stream. The slow
	// simulated backend guarantees the crash lands strictly mid-job.
	dir := t.TempDir()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 200*time.Microsecond, 0, 8)
	m := NewManager(NewEngine(osn.NewNetworkOn(sim)),
		Config{Runners: 1, WorkerBudget: 4,
			Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.durable.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	k := j.durable.Load()
	if k < 5 || k >= int64(spec.Count) {
		t.Fatalf("crash point k=%d not strictly mid-stream", k)
	}
	crash(t, m)

	// Reboot on a fresh cold engine: the job resumes by deterministic re-run.
	re := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4,
		Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	defer re.Close()
	resumed, restarted, rehydrated := re.RecoveredCounts()
	if resumed != 1 || restarted != 0 || rehydrated != 0 {
		t.Fatalf("recovered (resumed=%d, restarted=%d, rehydrated=%d), want (1, 0, 0)", resumed, restarted, rehydrated)
	}
	jr, ok := re.Get(j.ID())
	if !ok {
		t.Fatalf("resumed job %s not registered", j.ID())
	}
	st := waitJob(t, jr)
	if st.State != JobDone {
		t.Fatalf("resumed job: %+v", st)
	}
	sameRows(t, allRows(t, jr), want, "resumed stream")
	if re.Recovering() {
		t.Fatal("still recovering after the resumed job finished")
	}
	if re.RecoveryDuration() <= 0 {
		t.Fatal("recovery duration not recorded")
	}

	// The journal converged: a third boot rehydrates the job as terminal with
	// the full rows and nothing left to resume.
	re.Close()
	jl3 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	recs, _ := jl3.Recovered()
	jl3.Close()
	if len(recs) != 1 || recs[0].State != JobDone || len(recs[0].Rows) != spec.Count {
		t.Fatalf("converged journal: %d recs, state %v, %d rows",
			len(recs), recs[0].State, len(recs[0].Rows))
	}
}

// A graceful drain (SIGTERM path: Manager.Close) journals a terminal record
// for every known job — exactly one each, none lost — so the next boot
// recovers precisely the drained state with nothing to resume.
func TestGracefulDrainRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(400, 3, rand.New(rand.NewSource(7)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8)
	m := NewManager(NewEngine(osn.NewNetworkOn(sim)),
		Config{Runners: 1, QueueDepth: 8, WorkerBudget: 2,
			Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncInterval})})

	// One fast job that finishes, one long runner, and queued jobs behind it:
	// the drain hits every lifecycle stage at once.
	fast, err := m.Submit(JobSpec{Count: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, fast); st.State != JobDone {
		t.Fatalf("fast job: %+v", st)
	}
	long, err := m.Submit(JobSpec{Count: 1000000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for long.Status().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var queued []*Job
	for i := 0; i < 3; i++ {
		q, err := m.Submit(JobSpec{Count: 5, Seed: int64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, q)
	}
	ids := []string{fast.ID(), long.ID()}
	for _, q := range queued {
		ids = append(ids, q.ID())
	}
	m.Close() // the SIGTERM path: cancel, drain, flush, fsync

	re := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4,
		Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	defer re.Close()
	resumed, restarted, rehydrated := re.RecoveredCounts()
	if resumed+restarted != 0 {
		t.Fatalf("graceful drain left %d jobs to resume and %d to restart, want 0", resumed, restarted)
	}
	if rehydrated != int64(len(ids)) {
		t.Fatalf("rehydrated %d jobs, want %d", rehydrated, len(ids))
	}
	if got := len(re.List()); got != len(ids) {
		t.Fatalf("recovered %d records for %d jobs (duplicates or losses)", got, len(ids))
	}
	for _, id := range ids {
		j, ok := re.Get(id)
		if !ok {
			t.Fatalf("drained job %s lost", id)
		}
		if st := j.Status(); !st.State.Terminal() {
			t.Fatalf("drained job %s recovered non-terminal: %+v", id, st)
		}
	}
	if jf, _ := re.Get(fast.ID()); jf != nil {
		if st := jf.Status(); st.State != JobDone || st.Samples != 2 {
			t.Fatalf("fast job lost its completion: %+v", st)
		}
	}
}

// While resumed jobs are still replaying, the daemon reports recovering:
// /readyz answers 503 with "recovering": true, flipping back once the last
// resumed job lands.
func TestRecoveringReadiness(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 500*time.Microsecond, 0, 8)
	m := NewManager(NewEngine(osn.NewNetworkOn(sim)),
		Config{Runners: 1, WorkerBudget: 4,
			Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	j, err := m.Submit(JobSpec{Type: TypeSample, Count: 200, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.durable.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	crash(t, m)

	sim2 := osn.NewRemoteSim(osn.NewMemBackend(g), 500*time.Microsecond, 0, 8)
	re := NewManager(NewEngine(osn.NewNetworkOn(sim2)),
		Config{Runners: 1, WorkerBudget: 4,
			Journal: openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})})
	defer re.Close()
	srv := httptest.NewServer(Handler(re))
	defer srv.Close()

	if !re.Recovering() {
		t.Fatal("manager not recovering right after boot with a resumed job")
	}
	var body struct {
		Ready      bool `json:"ready"`
		Recovering bool `json:"recovering"`
	}
	if code := getJSON(t, srv.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery: %d, want 503", code)
	}
	if body.Ready || !body.Recovering {
		t.Fatalf("/readyz body during recovery: %+v", body)
	}

	jr, _ := re.Get(j.ID())
	if st := waitJob(t, jr); st.State != JobDone {
		t.Fatalf("resumed job: %+v", st)
	}
	if re.Recovering() {
		t.Fatal("recovering stuck after the resumed job finished")
	}
	if code := getJSON(t, srv.URL+"/readyz", &body); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", code)
	}
	if !body.Ready || body.Recovering {
		t.Fatalf("/readyz body after recovery: %+v", body)
	}
}

// A journal written by an older sampler carries records without a draw
// version, or with the previous one. Its incomplete job restarts as a new
// stream — nothing durable, counted as restarted, not resumed — instead of
// splicing a durable prefix drawn by other code. A current-version record
// whose worker count must be clamped resumes its durable prefix: the width
// does not change the draws. Terminal rows of an old version are
// rehydrated under their own id, keep their version and lack of a digest,
// and are never returned for a new submission.
func TestOldDrawVersionRecordsRestart(t *testing.T) {
	cfg := Config{Runners: 1, WorkerBudget: 2}
	ref := NewManager(NewEngine(testNetwork(t)), cfg)
	run := func(seed int64) (*Job, JobStatus) {
		t.Helper()
		j, err := ref.Submit(JobSpec{Count: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != JobDone {
			t.Fatalf("reference: %+v", st)
		}
		return j, st
	}
	// Terminal records hold spec a, incomplete ones spec b, so no restarted
	// job's completion can seed the result cache for a.
	ja, st := run(21)
	jb, _ := run(22)
	want, wantB := allRows(t, ja), allRows(t, jb)
	spec, specB := ja.Spec(), jb.Spec()
	ref.Close()

	// Old-version terminal rows that differ from what this binary draws.
	fake := append([]Sample(nil), want...)
	for i := range fake {
		fake[i].Node = (fake[i].Node + 1) % 300
	}
	res := *st.Result
	wide := specB
	wide.Workers = 4
	recs := []JobRecord{
		{ID: "job-000001", Seq: 1, Spec: specB, State: JobRunning, Durable: 5},
		{ID: "job-000002", Seq: 2, Spec: wide, State: JobQueued, Durable: 5, Draws: core.DrawVersion},
		{ID: "job-000003", Seq: 3, Spec: spec, State: JobDone, Rows: fake, Result: &res},
	}

	m := NewManager(NewEngine(testNetwork(t)), cfg)
	if j, restart := m.jobFromRecord(recs[0]); !restart || j.durable.Load() != 0 {
		t.Errorf("unversioned record: restart %v, durable %d; want a restart with nothing durable", restart, j.durable.Load())
	}
	if j, restart := m.jobFromRecord(recs[1]); restart || j.durable.Load() != 5 || j.Spec().Workers != 2 {
		t.Errorf("clamped record: restart %v, durable %d, workers %d; want a resume of 5 on 2 workers",
			restart, j.durable.Load(), j.Spec().Workers)
	}
	prev := recs[0]
	prev.Draws = core.DrawVersion - 1
	if j, restart := m.jobFromRecord(prev); !restart || j.durable.Load() != 0 {
		t.Errorf("version %d record: restart %v, durable %d; want a restart with nothing durable",
			prev.Draws, restart, j.durable.Load())
	}
	cur := recs[0]
	cur.Draws = core.DrawVersion
	if j, restart := m.jobFromRecord(cur); restart || j.durable.Load() != 5 {
		t.Errorf("current-version record: restart %v, durable %d; want a resume of 5", restart, j.durable.Load())
	}
	m.Close()

	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	for i := range recs {
		typ := recAccepted
		if recs[i].State.Terminal() {
			typ = recTerminal
		}
		if err := jl.append(journalRecord{T: typ, Job: &recs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	cfg.Journal = openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	re := NewManager(NewEngine(testNetwork(t)), cfg)
	defer re.Close()
	if resumed, restarted, rehydrated := re.RecoveredCounts(); resumed != 1 || restarted != 1 || rehydrated != 1 {
		t.Fatalf("recovered (resumed=%d, restarted=%d, rehydrated=%d), want (1, 1, 1)", resumed, restarted, rehydrated)
	}
	sameDraws := func(what string, got, want []Sample) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Node != want[i].Node || got[i].Steps != want[i].Steps {
				t.Fatalf("%s: row %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		j, ok := re.Get(id)
		if !ok {
			t.Fatalf("recovered job %s not registered", id)
		}
		if st := waitJob(t, j); st.State != JobDone {
			t.Fatalf("recovered job %s: %+v", id, st)
		}
		sameDraws("recovered "+id, allRows(t, j), wantB)
	}
	old, ok := re.Get("job-000003")
	if !ok {
		t.Fatal("rehydrated job job-000003 not registered")
	}
	sameRows(t, allRows(t, old), fake, "rehydrated job-000003")
	if rec := old.record(); old.Digest() != "" || rec.Draws != 0 {
		t.Errorf("old-version record rewritten with digest %q, draws %d; want none and 0", old.Digest(), rec.Draws)
	}

	nj, err := re.Submit(JobSpec{Count: 12, Seed: 21, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if nj.ID() == rec.ID {
			t.Fatalf("new submission reused recovered id %s", rec.ID)
		}
	}
	if st := waitJob(t, nj); st.State != JobDone || st.Result.Cached {
		t.Fatalf("new submission: %+v, want a fresh run", st)
	}
	sameDraws("new submission", allRows(t, nj), want)
}
