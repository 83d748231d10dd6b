package serve

import (
	"time"

	"repro/internal/core"
)

// Manager-side durability: journaling job lifecycle events and recovering
// them at boot.
//
// Recovery splits by terminal-ness. Terminal records are *rehydrated*:
// re-registered in the retained-job table with their full status, result,
// and sample rows, so GETs and stream replays serve them with zero new walk
// steps and zero new query charges. Incomplete records are *resumed*: the
// job is re-admitted with its recovered durable-sample count k and re-runs
// its deterministic pipeline from scratch — the per-(spec, seed)
// determinism contract guarantees the re-run regenerates the identical
// sample sequence at any worker count, so the client-visible stream of a
// crashed-and-restarted job is bit-identical to an uninterrupted run. The
// first k samples are re-published to the in-memory stream (clients replay
// from index 0) but suppressed from the journal: they are already durable.
// That guarantee holds only for the draw version the k samples were drawn
// under: an incomplete record of another draw version is *restarted*
// instead — re-run as a new stream with nothing durable, so no journal
// splices two streams.
//
// Lock discipline: every journal append happens OUTSIDE m.mu and job.mu.
// Rotation (inside the journal lock) calls back into snapshotRecords, which
// takes both — appending under either would deadlock.

// journal returns the attached journal, nil when durability is off (or the
// manager has shut down).
func (m *Manager) journal() *Journal { return m.jl.Load() }

// Recovering reports whether boot recovery is still in progress: resumed
// jobs exist that have not yet reached a terminal state. Surfaced by
// /readyz as "recovering" (503) so orchestrators route traffic elsewhere
// until the daemon has caught back up to its pre-crash state.
func (m *Manager) Recovering() bool { return m.recovering.Load() }

// RecoveryDuration returns how long boot recovery took — from manager
// construction until the last resumed job went terminal — or the elapsed
// time so far while recovery is still running. Zero without a journal.
func (m *Manager) RecoveryDuration() time.Duration {
	if m.recovering.Load() {
		return time.Since(m.recoverStart)
	}
	return time.Duration(m.recoveryDur.Load())
}

// RecoveredCounts reports how many jobs boot recovery restored, split by
// mode: resumed (incomplete records re-running deterministically),
// restarted (incomplete records re-running as new streams) and rehydrated
// (terminal records servable with zero new work).
func (m *Manager) RecoveredCounts() (resumed, restarted, rehydrated int64) {
	return m.met.jobsResumed.Load(), m.met.jobsRestarted.Load(), m.met.jobsRehydrated.Load()
}

// recoverFromJournal registers the journal's replayed jobs: terminal records
// rehydrate into the retained table, incomplete ones go to the runner's
// Resume for a deterministic re-run. Called at construction, before any
// request can land, so every recovered id is resolvable from the start.
func (m *Manager) recoverFromJournal(jl *Journal) {
	recs, seq := jl.Recovered()
	var resume []*Job
	m.mu.Lock()
	if seq > m.seq {
		m.seq = seq
	}
	for _, rec := range recs {
		if _, ok := m.jobs[rec.ID]; ok {
			continue
		}
		job, restart := m.jobFromRecord(rec)
		m.jobs[rec.ID] = job
		m.order = append(m.order, rec.ID)
		switch {
		case rec.State.Terminal():
			m.met.jobsRehydrated.Add(1)
			// Re-seed the result cache: a rehydrated clean completion is as
			// good an answer as a freshly computed one, so repeats keep
			// hitting across restarts. (Put itself drops partial results.)
			// The digest leads with the draw version, so a record of
			// another version can never answer this one's submissions.
			if m.results != nil && job.digest != "" && rec.State == JobDone {
				m.results.Put(job.digest, rec.Rows, rec.Result)
			}
		case restart:
			m.met.jobsRestarted.Add(1)
			resume = append(resume, job)
		default:
			m.met.jobsResumed.Add(1)
			resume = append(resume, job)
		}
	}
	m.mu.Unlock()
	if len(resume) == 0 {
		m.recoveryDur.Store(int64(time.Since(m.recoverStart)))
		return
	}
	m.recovering.Store(true)
	m.recoverPending.Store(int64(len(resume)))
	m.runner.Resume(resume)
}

// jobFromRecord rebuilds a Job from its durable record. For an incomplete
// record it reports whether the job restarts as a new stream rather than
// resuming its durable prefix.
func (m *Manager) jobFromRecord(rec JobRecord) (j *Job, restart bool) {
	spec := rec.Spec
	env, haveEnv := m.runner.Env()
	if haveEnv && spec.Workers > env.MaxWorkersPerJob {
		// A shrunken worker budget cannot honor the recorded parallelism;
		// clamp (the stream stays) rather than deadlock on acquisition.
		spec.Workers = env.MaxWorkersPerJob
	}
	terminal := rec.State.Terminal()
	restart = !terminal && rec.Draws != core.DrawVersion
	j = m.newJob(spec, rec.Digest, msToTime(rec.SubmittedMS))
	j.id = rec.ID
	j.seq = rec.Seq
	if haveEnv && (restart || (j.digest == "" && rec.Draws == core.DrawVersion)) {
		// A job that re-runs under another draw version than its record's,
		// or a pre-digest record of this version: the recorded spec is
		// already normalized, so the digest is recomputable against the
		// current environment. A terminal record of another version keeps
		// the digest it was drawn under.
		j.digest = SpecDigest(env, spec)
	}
	if !terminal {
		j.recovered = true
		if !restart {
			j.durable.Store(int64(rec.Durable))
		}
		return j, restart
	}
	// Keep the record's version: compaction rewrites the record from the
	// job, and a digestless record stamped with this version would get a
	// digest of this version at the next boot.
	j.draws = rec.Draws
	j.state = rec.State
	j.errMsg = rec.Error
	j.reason = rec.Reason
	j.result = rec.Result
	j.samples = rec.Rows
	j.started = msToTime(rec.StartedMS)
	j.finished = msToTime(rec.FinishedMS)
	if j.finished.IsZero() {
		// Old records always carry a finish time; guard anyway so the
		// retention sweeper's terminal test never sees a zero time.
		j.finished = time.Now()
	}
	return j, false
}

// retireRecovery runs once per terminal transition of a resumed job, before
// the transition is visible: it retires one unit of recovery debt — when
// the last resumed job lands, recovery is complete and /readyz goes ready.
func (m *Manager) retireRecovery(j *Job) {
	if j.recovered && m.recoverPending.Add(-1) == 0 {
		m.recoveryDur.Store(int64(time.Since(m.recoverStart)))
		m.recovering.Store(false)
	}
}

// journalAccepted makes a fresh job's admission durable. Submit closes
// j.journaled afterwards; the runner and every other append for the job
// wait on it, so no progress or terminal record can precede acceptance.
func (m *Manager) journalAccepted(j *Job) {
	jl := m.journal()
	if jl == nil {
		return
	}
	rec := j.record()
	jl.append(journalRecord{T: recAccepted, Job: &rec})
}

// journalProgress advances the job's durable-sample high-water mark to n.
// Appends are suppressed while n is within the already-durable prefix — the
// resume path's "first k samples" and any replayed publish cost nothing.
func (m *Manager) journalProgress(j *Job, n int) {
	jl := m.journal()
	if jl == nil {
		return
	}
	if int64(n) <= j.durable.Load() {
		return
	}
	j.waitJournaled()
	if jl.append(journalRecord{T: recProgress, ID: j.id, N: n}) == nil {
		j.durable.Store(int64(n))
	}
}

// journalTerminal makes a job's terminal status durable, sample rows and
// all.
func (m *Manager) journalTerminal(j *Job) {
	jl := m.journal()
	if jl == nil {
		return
	}
	j.waitJournaled()
	rec := j.record()
	jl.append(journalRecord{T: recTerminal, Job: &rec})
}

// journalEvicted records retention evictions so swept terminal jobs do not
// resurrect at the next boot.
func (m *Manager) journalEvicted(ids []string) {
	jl := m.journal()
	if jl == nil {
		return
	}
	for _, id := range ids {
		jl.append(journalRecord{T: recEvicted, ID: id})
	}
}

// snapshotRecords is the journal's compaction source: the durable state of
// every retained job, plus the id-sequence high water. Called with the
// journal lock held — it must never append.
func (m *Manager) snapshotRecords() ([]JobRecord, int64) {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	seq := m.seq
	m.mu.Unlock()
	recs := make([]JobRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = j.record()
	}
	return recs, seq
}

// record snapshots the job's durable state. Terminal jobs carry their full
// status and sample rows; incomplete jobs carry the normalized spec and the
// durable-sample high-water mark (their samples are regenerable).
func (j *Job) record() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := JobRecord{
		ID:          j.id,
		Seq:         j.seq,
		Digest:      j.digest,
		Spec:        j.spec,
		Draws:       j.draws,
		State:       j.state,
		SubmittedMS: timeToMS(j.submitted),
	}
	if !j.state.Terminal() {
		rec.State = JobQueued
		rec.Durable = int(j.durable.Load())
		return rec
	}
	rec.Error = j.errMsg
	rec.Reason = j.reason
	rec.Result = j.result
	rec.Rows = j.samples
	rec.Durable = len(j.samples)
	rec.StartedMS = timeToMS(j.started)
	rec.FinishedMS = timeToMS(j.finished)
	return rec
}

// waitJournaled blocks until the job's accepted record is durable (no-op
// for recovered jobs and journal-less managers).
func (j *Job) waitJournaled() {
	if j.journaled != nil {
		<-j.journaled
	}
}

func timeToMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

func msToTime(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}
