package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/osn"
	"repro/internal/serve"
)

// getStatus fetches a job's status from the coordinator.
func (tf *testFleet) getStatus(t *testing.T, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(tf.coSrv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func openJournal(t *testing.T, dir string) *serve.Journal {
	t.Helper()
	jl, err := serve.OpenJournal(serve.JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

func sameRows(t *testing.T, what string, got, want []streamRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if *got[i].I != *want[i].I || got[i].Node != want[i].Node || got[i].Steps != want[i].Steps {
			t.Fatalf("%s: row %d is (%d,%d,%d), want (%d,%d,%d)", what, i,
				*got[i].I, got[i].Node, got[i].Steps, *want[i].I, want[i].Node, want[i].Steps)
		}
	}
}

// A journaled coordinator restarted over the same journal directory must
// (a) re-dispatch a job it abandoned mid-relay once workers join again,
// with a stream identical on (i, node, steps) to an uninterrupted run, and
// (b) after one more restart, rehydrate the finished job — state, rows and
// digest — and answer its repeat at another width from the re-seeded
// result cache without dispatching.
func TestCoordinatorRestartRecoversFromJournal(t *testing.T) {
	g := testGraph()
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8))
	}
	wcfg := serve.Config{Runners: 1, WorkerBudget: 4}
	// slow must outlast several 5 ms polls on a cold fleet, or the abandon
	// point below races the job's completion.
	slow := serve.JobSpec{Type: serve.TypeSample, Count: 300, Seed: 17, Workers: 1}

	// Reference for the abandoned job: an uninterrupted run on an unjournaled fleet.
	ref := startFleet(t, 2, mkNet, wcfg, CoordinatorConfig{})
	refRows, refTerm := ref.readStream(t, ref.submit(t, slow).ID, nil)
	ref.close()
	if refTerm.State != string(serve.JobDone) || len(refRows) != slow.Count {
		t.Fatalf("reference run: %+v (%d rows)", refTerm, len(refRows))
	}

	dir := t.TempDir()
	boot := func() *testFleet {
		return startFleet(t, 2, mkNet, wcfg, CoordinatorConfig{Journal: openJournal(t, dir)})
	}
	// Abandon the job mid-relay, first on a fresh fleet, so no earlier job
	// has warmed the cache it reads: Close stops the relay without a
	// terminal record, exactly what a kill -9 leaves in the journal.
	first := boot()
	ab := first.submit(t, slow)
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := first.getStatus(t, ab.ID)
		if st.State.Terminal() {
			t.Fatalf("slow job finished before the abandon point: %+v", st)
		}
		if st.Samples >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	first.close()

	// (a) The abandoned job is re-dispatched and completes with the
	// uninterrupted run's rows.
	second := boot()
	rows, term := second.readStream(t, ab.ID, nil)
	if term.State != string(serve.JobDone) {
		t.Fatalf("resumed job terminal: %+v", term)
	}
	sameRows(t, "resumed stream", rows, refRows)
	finSt := second.getStatus(t, ab.ID)
	if finSt.Attempts < 1 || finSt.Worker < 0 {
		t.Fatalf("resumed job was not placed: %+v", finSt)
	}
	second.close()

	// (b) The finished job rehydrates with its state, digest and rows.
	third := boot()
	defer third.close()
	st := third.getStatus(t, ab.ID)
	if st.State != serve.JobDone || st.Digest != finSt.Digest || st.Samples != finSt.Samples {
		t.Fatalf("rehydrated status %+v, want %+v", st.JobStatus, finSt.JobStatus)
	}
	rows, term = third.readStream(t, ab.ID, nil)
	if term.State != string(serve.JobDone) {
		t.Fatalf("rehydrated terminal line: %+v", term)
	}
	sameRows(t, "rehydrated stream", rows, refRows)

	// A repeat at another width hits the re-seeded coordinator cache once
	// the norm env is adopted from a heartbeat: instantly done, never
	// placed on a worker.
	deadline = time.Now().Add(10 * time.Second)
	for third.co.normEnv.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never adopted a worker norm env")
		}
		time.Sleep(10 * time.Millisecond)
	}
	wide := slow
	wide.Workers = 2
	rep := third.submit(t, wide)
	if rep.State != serve.JobDone || rep.Result == nil || !rep.Result.Cached ||
		rep.Digest != finSt.Digest || rep.Worker != -1 || rep.Attempts != 0 {
		t.Fatalf("repeat after restart was not a coordinator cache hit: %+v", rep)
	}
}

// The coordinator's job table is the serve table: its retention sweep
// evicts terminal jobs past serve.DefaultRetention, keeps running ones, and
// exports both meters.
func TestCoordinatorSweepEvictsTerminalJobs(t *testing.T) {
	g := testGraph()
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8))
	}
	tf := startFleet(t, 1, mkNet, serve.Config{Runners: 2, WorkerBudget: 2}, CoordinatorConfig{})
	defer tf.close()

	fin := tf.submit(t, serve.JobSpec{Type: serve.TypeSample, Count: 5, Seed: 3, Workers: 1})
	if _, term := tf.readStream(t, fin.ID, nil); term.State != string(serve.JobDone) {
		t.Fatalf("short job: %+v", term)
	}
	run := tf.submit(t, serve.JobSpec{Type: serve.TypeSample, Count: 100000, Seed: 4, Workers: 1})

	if n := tf.co.mgr.Sweep(time.Now().Add(serve.DefaultRetention + time.Minute)); n != 1 {
		t.Fatalf("swept %d jobs, want the 1 terminal job", n)
	}
	list := tf.co.List()
	if len(list) != 1 || list[0].ID != run.ID || list[0].State.Terminal() {
		t.Fatalf("retained jobs after sweep: %+v", list)
	}
	resp, err := http.Get(tf.coSrv.URL + "/v1/jobs/" + fin.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: %s", resp.Status)
	}
	resp, err = http.Get(tf.coSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"walknotwait_jobs_evicted_total 1\n", "walknotwait_jobs_retained 1\n"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("coordinator /metrics lacks %q", want)
		}
	}
	tf.co.mgr.Cancel(run.ID)
}
