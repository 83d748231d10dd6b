package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// JobStatus is the coordinator's job snapshot: the single-daemon status plus
// fleet placement. The embedded fields marshal flat, so clients written for
// a plain weserve parse it unchanged.
type JobStatus struct {
	serve.JobStatus
	// Worker is the fleet index of the worker currently (or last) running
	// the job (-1 while awaiting placement).
	Worker int `json:"worker"`
	// Attempts counts dispatches: 1 for an undisturbed job, +1 per hand-off.
	Attempts int `json:"attempts"`
}

// Dispatch bounds: how many workers one job may be dispatched to before it
// fails with reason "worker_lost", and how long one submit/status call to a
// worker may take (streams are not bounded by it).
const (
	maxAttempts     = 5
	dispatchTimeout = 10 * time.Second
)

// fleetJob is the fleet side of one coordinator job, attached to its
// serve.Job as runner state: where it runs and how often it was placed.
type fleetJob struct {
	mu        sync.Mutex
	worker    int // current placement (-1 none)
	attempts  int
	remoteID  string // job id on the placed worker
	cancelled bool   // client requested cancellation
}

// fleetOf returns the job's fleet state; jobs never dispatched (result-cache
// hits) have none and read as unplaced.
func fleetOf(j *serve.Job) *fleetJob {
	if fj, ok := j.Ext().(*fleetJob); ok {
		return fj
	}
	return &fleetJob{worker: -1}
}

func (fj *fleetJob) place(pl *placement) {
	fj.mu.Lock()
	fj.worker, fj.remoteID = pl.idx, pl.status.ID
	fj.attempts++
	fj.mu.Unlock()
}

func (fj *fleetJob) isCancelled() bool {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	return fj.cancelled
}

// status renders a coordinator job: the serve status plus placement.
func (co *Coordinator) status(j *serve.Job) JobStatus {
	fj := fleetOf(j)
	fj.mu.Lock()
	defer fj.mu.Unlock()
	return JobStatus{JobStatus: j.Status(), Worker: fj.worker, Attempts: fj.attempts}
}

// fleetRunner is the coordinator's serve.Runner: jobs start by dispatch to a
// live worker, run as a relay of the worker's stream, resume by
// re-dispatch, and cancel by a forwarded DELETE. Admission, the job table,
// the sample log, the terminal transition, the result cache, the journal
// and boot recovery are all the coordinator's serve.Manager.
type fleetRunner struct{ co *Coordinator }

// Env is the normalization environment adopted from worker heartbeats.
// Until one arrives submissions dispatch as sent and adopt the worker's
// normalized spec and digest (a startup window of cache misses, never a
// wrong hit).
func (r fleetRunner) Env() (serve.NormEnv, bool) {
	if env := r.co.normEnv.Load(); env != nil {
		return *env, true
	}
	return serve.NormEnv{}, false
}

func (r fleetRunner) FleetQueries() int64 { return r.co.FleetQueries() }

// Start places the job on a live worker, registers it under the worker's
// normalized spec and digest, and starts its relay. Worker refusals come
// back as *serve.RelayedError for verbatim relay.
func (r fleetRunner) Start(j *serve.Job) error {
	co := r.co
	if co.mgr.Draining() {
		return serve.ErrClosed // never place a job Register would refuse
	}
	pl, err := co.dispatchOnce(j, j.Spec(), "")
	if err != nil {
		var re *serve.RelayedError
		if errors.As(err, &re) && re.Code == http.StatusServiceUnavailable {
			co.shedForwarded.Add(1)
		}
		return err
	}
	j.Adopt(pl.status.Spec, pl.status.Digest)
	fj := &fleetJob{}
	fj.place(pl)
	j.SetExt(fj)
	// Count the relay before registering: once registered, Close may
	// abandon the job and wait for its relay.
	co.wg.Add(1)
	if err := co.mgr.Register(j); err != nil {
		co.wg.Done()
		return err
	}
	j.SetRunning()
	go co.relay(j, fj, pl)
	return nil
}

// Resume re-dispatches recovered jobs once workers are available.
func (r fleetRunner) Resume(jobs []*serve.Job) {
	for _, j := range jobs {
		fj := &fleetJob{worker: -1}
		j.SetExt(fj)
		r.co.wg.Add(1)
		go r.co.relay(j, fj, nil)
	}
}

// Cancel forwards the DELETE to the placed worker (the relay then observes
// the cancelled terminal) and finishes the job directly when it has no
// placement to forward to.
func (r fleetRunner) Cancel(j *serve.Job) {
	co := r.co
	if j.Status().State.Terminal() {
		return
	}
	fj := fleetOf(j)
	fj.mu.Lock()
	fj.cancelled = true
	idx, remoteID := fj.worker, fj.remoteID
	fj.mu.Unlock()
	addr := ""
	co.mu.Lock()
	if idx >= 0 && idx < len(co.workers) {
		addr = co.workers[idx].addr
	}
	co.mu.Unlock()
	if addr != "" && remoteID != "" && co.cancelRemote(addr, remoteID) {
		return
	}
	j.Finish(serve.JobCancelled, "cancelled by client", "", nil)
}

// cancelRemote forwards a DELETE for job id to the worker at addr,
// reporting whether the worker answered.
func (co *Coordinator) cancelRemote(addr, id string) bool {
	req, err := http.NewRequest(http.MethodDelete, addr+"/v1/jobs/"+id, nil)
	if err != nil {
		return false
	}
	resp, err := co.hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return true
}

// Close abandons every relay without a terminal record — the journal keeps
// the jobs incomplete, so a restarted coordinator re-dispatches them (kill
// -9 takes this same path implicitly) — and waits for the relays to stop.
// Worker processes are not touched.
func (r fleetRunner) Close(jobs []*serve.Job) {
	for _, j := range jobs {
		j.Abandon()
	}
	r.co.wg.Wait()
}

// placement is a successful dispatch: where the job landed and the worker's
// accepted status (normalized spec + remote id).
type placement struct {
	idx    int
	gen    int64
	addr   string
	status serve.JobStatus
}

// dispatchOnce tries each live worker once (round-robin from the cursor).
// Outcomes: a placement; a response to relay verbatim (every worker shed →
// the last 503, or a 4xx rejection → immediately, since validation is
// deterministic across workers); or a no_workers shed — no live worker
// answered. A non-empty want is the digest the placement must report: a
// worker that digests the spec otherwise (another draw version or graph)
// would draw another stream, so its job is cancelled and, if no worker
// reports want, dispatch ends in a 409.
func (co *Coordinator) dispatchOnce(j *serve.Job, spec serve.JobSpec, want string) (*placement, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, &serve.RelayedError{Code: http.StatusBadRequest,
			Body: []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))}
	}
	tried := make(map[int]bool)
	var lastShed error = &serve.ShedError{Reason: ShedNoWorkers}
	for {
		idx, addr, gen, ok := co.pickWorker(tried)
		if !ok {
			return nil, lastShed
		}
		tried[idx] = true
		req, err := http.NewRequestWithContext(j.Context(), http.MethodPost, addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, lastShed
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := co.hc.Do(req)
		if err != nil {
			co.markDead(idx, gen)
			continue
		}
		respBody := readBody(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var st serve.JobStatus
			if json.Unmarshal(respBody, &st) != nil || st.ID == "" {
				co.markDead(idx, gen)
				continue
			}
			if want != "" && st.Digest != want {
				co.cancelRemote(addr, st.ID)
				lastShed = &serve.RelayedError{Code: http.StatusConflict, Body: []byte(fmt.Sprintf(
					"{\"error\":%q}", "worker digests the job as "+st.Digest+", not "+want))}
				continue
			}
			return &placement{idx: idx, gen: gen, addr: addr, status: st}, nil
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Worker-side shed (queue_full / draining): hold it for verbatim
			// relay — the typed reason and Retry-After must reach the client
			// unchanged, with no coordinator shed layered on top.
			lastShed = &serve.RelayedError{Code: resp.StatusCode,
				RetryAfter: resp.Header.Get("Retry-After"), Body: respBody}
		default:
			return nil, &serve.RelayedError{Code: resp.StatusCode,
				RetryAfter: resp.Header.Get("Retry-After"), Body: respBody}
		}
	}
}

// streamLine is one decoded NDJSON line from a worker stream: either a
// sample row or the terminal marker.
type streamLine struct {
	Done  bool  `json:"done"`
	Index *int  `json:"i"`
	Node  int   `json:"node"`
	Steps int   `json:"steps"`
	Cost  int64 `json:"cost"`
}

// relay follows the job's sample stream on its placed worker (placing it
// first when pl is nil — a recovered job), publishing rows into the job's
// log. When the stream dies before a terminal line — worker crash, network
// loss, a worker restart that forgot the job, or a row outside the job —
// it hands the job off:
// re-dispatch the normalized spec to another live worker and keep
// relaying; the re-run's replayed prefix is absorbed by the log's index
// dedup. Crash resume and hand-off are the same deterministic re-run.
// Attempts are capped; past the cap the job fails with reason
// "worker_lost".
func (co *Coordinator) relay(j *serve.Job, fj *fleetJob, pl *placement) {
	defer co.wg.Done()
	for {
		if pl == nil {
			if pl = co.redispatch(j, fj); pl == nil {
				return // redispatch finished the job (or it was abandoned)
			}
			j.SetRunning()
		}
		if co.relayOnce(j, pl) {
			return
		}
		if j.Context().Err() != nil {
			// Cancelled, finished, or abandoned: the worker may still hold
			// the job; finish only on explicit cancel (abandon leaves the
			// journal non-terminal for restart re-dispatch).
			if fj.isCancelled() {
				j.Finish(serve.JobCancelled, "cancelled by client", "", nil)
			}
			return
		}
		co.markDead(pl.idx, pl.gen)
		fj.mu.Lock()
		attempts := fj.attempts
		fj.mu.Unlock()
		if attempts >= maxAttempts {
			j.Finish(serve.JobFailed, fmt.Sprintf("lost %d workers running this job", attempts),
				ReasonWorkerLost, nil)
			return
		}
		co.handoffs.Add(1)
		pl = nil
	}
}

// relayOnce streams the job once from its current placement. It returns
// true when the job reached a terminal state, false when the stream died
// first (caller hands off).
func (co *Coordinator) relayOnce(j *serve.Job, pl *placement) bool {
	env := co.normEnv.Load()
	if env == nil {
		// No heartbeat yet: scrape the workers for their environment.
		co.refreshStats()
		if env = co.normEnv.Load(); env == nil {
			return false
		}
	}
	req, err := http.NewRequestWithContext(j.Context(), http.MethodGet,
		pl.addr+"/v1/jobs/"+pl.status.ID+"/stream", nil)
	if err != nil {
		return false
	}
	resp, err := co.sc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if !relayRows(resp.Body, j.Spec().Count, env.NumNodes, j.Publish) {
		return false
	}
	return co.finishFromWorker(j, pl, env.NumNodes)
}

// relayRows decodes a worker's NDJSON sample stream and publishes its rows
// until the terminal line, reporting whether that line arrived. A stream
// that breaks off, fails to decode, or carries a row outside the job — an
// index outside [0, count) or a node outside [0, numNodes) — reports false,
// so the caller treats the worker as lost and never relays the bad row to
// clients or the result cache.
func relayRows(r io.Reader, count, numNodes int, publish func(serve.Sample)) bool {
	dec := json.NewDecoder(r)
	for {
		var line streamLine
		if err := dec.Decode(&line); err != nil {
			return false
		}
		if line.Done {
			return true
		}
		if line.Index == nil {
			continue
		}
		if *line.Index < 0 || *line.Index >= count || line.Node < 0 || line.Node >= numNodes {
			return false
		}
		publish(serve.Sample{Index: *line.Index, Node: line.Node, Steps: line.Steps, Cost: line.Cost})
	}
}

// finishFromWorker pulls the terminal status (with its result summary) from
// the worker and finishes the coordinator job with it. A worker that claims
// done on the stream but cannot produce a terminal status, or whose result
// names a node outside [0, numNodes), is treated as lost.
func (co *Coordinator) finishFromWorker(j *serve.Job, pl *placement, numNodes int) bool {
	req, err := http.NewRequestWithContext(j.Context(), http.MethodGet,
		pl.addr+"/v1/jobs/"+pl.status.ID, nil)
	if err != nil {
		return false
	}
	resp, err := co.hc.Do(req)
	if err != nil {
		return false
	}
	body := readBody(resp.Body)
	resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil || !st.State.Terminal() {
		return false
	}
	if st.Result != nil {
		for _, v := range st.Result.Nodes {
			if v < 0 || v >= numNodes {
				return false
			}
		}
	}
	j.Finish(st.State, st.Error, st.FailureReason, st.Result)
	return true
}

// redispatchWindow bounds how long redispatch retries through sheds and
// worker gaps before failing the job.
const redispatchWindow = 30 * time.Second

// redispatch places the job on a live worker after a loss (or at boot),
// retrying for up to redispatchWindow. Only a worker that reports the
// job's digest may take it over: its re-run reproduces the rows already
// relayed. A 4xx is therefore a digest conflict or a rejection of a spec
// accepted once before, and fails the job.
func (co *Coordinator) redispatch(j *serve.Job, fj *fleetJob) *placement {
	deadline := time.Now().Add(redispatchWindow)
	for {
		if j.Context().Err() != nil {
			if fj.isCancelled() {
				j.Finish(serve.JobCancelled, "cancelled by client", "", nil)
			}
			return nil
		}
		pl, err := co.dispatchOnce(j, j.Spec(), j.Digest())
		if pl != nil {
			fj.place(pl)
			return pl
		}
		var re *serve.RelayedError
		if errors.As(err, &re) && re.Code != http.StatusServiceUnavailable {
			j.Finish(serve.JobFailed, fmt.Sprintf("re-dispatch rejected: %s", string(re.Body)),
				ReasonWorkerLost, nil)
			return nil
		}
		if time.Now().After(deadline) {
			j.Finish(serve.JobFailed,
				fmt.Sprintf("no worker accepted the job within %s of losing its worker", redispatchWindow),
				ReasonWorkerLost, nil)
			return nil
		}
		select {
		case <-j.Context().Done():
		case <-time.After(100 * time.Millisecond):
		}
	}
}
