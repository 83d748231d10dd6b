package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Job types accepted by the service.
const (
	// TypeSample draws Count nodes from the design's target distribution
	// with WALK-ESTIMATE.
	TypeSample = "sample"
	// TypeEstimateMean is TypeSample followed by the design-appropriate
	// population-mean estimator over the Attr attribute.
	TypeEstimateMean = "estimate-mean"
	// TypeWalkPath runs one plain forward walk of Count steps and streams
	// the visited nodes (a raw-walk debugging and warm-up primitive).
	TypeWalkPath = "walk-path"
)

// JobSpec is the client-supplied description of a sampling job. The zero
// value of every field selects a documented default; Submit normalizes the
// spec (fills defaults, clamps Workers to the manager's per-job budget) and
// the normalized spec is what the job's determinism contract is stated
// over: two jobs with equal normalized specs produce identical sample
// sequences, regardless of cache warmth or concurrent traffic.
type JobSpec struct {
	Type    string `json:"type,omitempty"`    // sample (default) | estimate-mean | walk-path
	Design  string `json:"design,omitempty"`  // srw (default) | mhrw
	Count   int    `json:"count,omitempty"`   // samples to draw / steps to walk; default 10
	Seed    int64  `json:"seed,omitempty"`    // RNG seed; default 1
	Workers int    `json:"workers,omitempty"` // estimation workers; default 1, clamped per job

	// Start is the walk's starting node; nil selects the engine default
	// (the max-degree node).
	Start *int `json:"start,omitempty"`
	// WalkLength is WE's t; 0 selects the engine default (2·D̄+1).
	WalkLength int `json:"walklen,omitempty"`
	// CrawlHops is the initial-crawl radius h; 0 means 2.
	CrawlHops int `json:"hops,omitempty"`
	// NoCrawl and NoWeighted disable the paper's two variance-reduction
	// heuristics, which the service enables by default.
	NoCrawl    bool `json:"no_crawl,omitempty"`
	NoWeighted bool `json:"no_weighted,omitempty"`
	// BackwardReps is the number of base backward walks per candidate and
	// VarianceBudget the most top-up walks a candidate runs, in waves,
	// while its estimate stays noisy (core.Config; 0 = core defaults: 3
	// base walks, no top-up). A wave's walks are paid in full, so a
	// budget's cost grows with the walks a candidate uses, up to about
	// twice them. Each lies in [0, 1024] (core.MaxWalksPerCandidate);
	// other values are refused with 400.
	BackwardReps   int `json:"backward_reps,omitempty"`
	VarianceBudget int `json:"variance_budget,omitempty"`
	// Attr is the attribute estimate-mean aggregates; default "degree".
	Attr string `json:"attr,omitempty"`
	// DeadlineMS, when > 0, bounds the job's run phase: the run context
	// gets this deadline, backend resilience waits are cut short by it, and
	// an overrun fails the job with reason "deadline_exceeded" — samples
	// streamed before the deadline remain valid and delivered.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Sample is one streamed output row: an accepted sample (or, for walk-path
// jobs, a visited node), its walk steps, and the fleet-wide query cost right
// after it was produced.
type Sample struct {
	Index int   `json:"i"`
	Node  int   `json:"node"`
	Steps int   `json:"steps"`
	Cost  int64 `json:"cost"`
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Typed failure reasons attached to failed jobs (JobStatus.FailureReason).
const (
	// ReasonBackendUnavailable marks a job failed because the access layer
	// exhausted its retry policy (or the circuit breaker refused service).
	ReasonBackendUnavailable = "backend_unavailable"
	// ReasonDeadlineExceeded marks a job that overran its deadline_ms.
	ReasonDeadlineExceeded = "deadline_exceeded"
)

// JobResult is the summary attached to a finished job.
type JobResult struct {
	Samples int `json:"samples"`
	// Partial marks the result of a failed job: everything recorded here
	// (and every streamed sample) was produced — and remains valid — before
	// the failure; only the remainder is missing.
	Partial bool `json:"partial,omitempty"`
	// Queries is the unique nodes this job paid for: the charges of its own
	// clients (the job client and its estimation workers' forks). Each
	// unique node is charged to exactly one client, so concurrent jobs'
	// Queries add up to the fleet meter's growth. Under a warm cache this
	// shrinks toward zero — the amortization the service exists for.
	Queries int64 `json:"queries"`
	// FleetQueries is the service-wide unique-node cost after the job.
	FleetQueries int64 `json:"fleet_queries"`
	// AcceptanceRate is WE's accepted/attempted candidates (sample jobs).
	AcceptanceRate float64 `json:"acceptance_rate,omitempty"`
	// Estimate is the population-mean estimate (estimate-mean jobs).
	Estimate *float64 `json:"estimate,omitempty"`
	// Nodes is the accepted sample sequence, in order.
	Nodes []int `json:"nodes,omitempty"`
	// Cached marks a job served from the result cache: the rows and summary
	// were replayed from an earlier completed run of the same digest, with
	// zero new walk steps and zero new query charges (Queries is 0).
	Cached bool `json:"cached,omitempty"`
}

// JobStatus is the JSON snapshot served for GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	Error string   `json:"error,omitempty"`
	// FailureReason is the typed cause of a failed job:
	// "backend_unavailable" or "deadline_exceeded" (empty otherwise).
	FailureReason string `json:"failure_reason,omitempty"`
	// Digest is the job's canonical content address — SpecDigest over
	// (graph id, normalized spec) — so clients can correlate repeat
	// submissions with the cached result they will hit.
	Digest  string     `json:"digest,omitempty"`
	Samples int        `json:"samples"`
	QueueMS float64    `json:"queue_ms"`
	RunMS   float64    `json:"run_ms"`
	Result  *JobResult `json:"result,omitempty"`
}

// Job is one submitted sampling job. All mutable state is guarded by mu;
// samples is append-only, published under mu with cond broadcast so any
// number of streamers can follow along.
//
// A Job's lifecycle belongs to its Manager — admission, the job table, the
// sample log, the exactly-once terminal transition and the journal — while
// the Manager's Runner moves it through that lifecycle with the exported
// runner-side methods (SetRunning, Publish, Finish, Abandon).
type Job struct {
	m      *Manager
	id     string
	seq    int64  // numeric id suffix, persisted for id continuity across restarts
	digest string // canonical content address (SpecDigest of the normalized spec)
	draws  int    // draw version of the job's stream (see JobRecord.Draws)
	spec   JobSpec
	ctx    context.Context
	cancel context.CancelCauseFunc
	ext    atomic.Value // runner-private state (see SetExt)

	// recovered marks a job re-admitted from the journal at boot for a
	// deterministic re-run; durable is the count of samples already in the
	// journal (the resume path suppresses re-appends below it). journaled,
	// when non-nil, is closed once the accepted record is durable — every
	// later append for the job waits on it, so the journal's per-job record
	// order is admission, progress, terminal even across goroutines.
	recovered bool
	durable   atomic.Int64
	journaled chan struct{}

	mu        sync.Mutex
	cond      sync.Cond
	state     JobState
	errMsg    string
	reason    string // typed failure reason (failed jobs)
	samples   []Sample
	result    *JobResult
	abandoned bool // runner let go without a terminal transition (see Abandon)
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func (m *Manager) newJob(spec JobSpec, digest string, submitted time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{m: m, spec: spec, digest: digest, draws: core.DrawVersion,
		ctx: ctx, cancel: cancel, state: JobQueued, submitted: submitted}
	j.cond.L = &j.mu
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Digest returns the job's canonical content address (the result-cache key).
func (j *Job) Digest() string { return j.digest }

// Spec returns the normalized spec the job runs under.
func (j *Job) Spec() JobSpec { return j.spec }

// Context returns the job's context: cancelled by Cancel and Abandon, and
// once the job is terminal.
func (j *Job) Context() context.Context { return j.ctx }

// Adopt replaces the spec and digest of a job that is not yet registered: a
// remote runner takes on the normalization its executor admitted the job
// under.
func (j *Job) Adopt(spec JobSpec, digest string) { j.spec, j.digest = spec, digest }

// SetExt attaches runner-private state to the job; Ext returns it (nil when
// never set).
func (j *Job) SetExt(v any) { j.ext.Store(v) }

// Ext returns the state attached by SetExt.
func (j *Job) Ext() any { return j.ext.Load() }

// Cancel requests cancellation through the manager's runner: a queued local
// job is finalized immediately, a running one abandons its in-flight work
// within one batch (see core.SampleNParallelCtx), and a remote one is
// cancelled where it runs.
func (j *Job) Cancel() { j.m.runner.Cancel(j) }

// expired reports whether the job is terminal and finished before cutoff
// (the retention sweeper's eviction test).
func (j *Job) expired(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cutoff)
}

// Status returns a point-in-time snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		Spec:          j.spec,
		Error:         j.errMsg,
		FailureReason: j.reason,
		Digest:        j.digest,
		Samples:       len(j.samples),
		Result:        j.result,
	}
	if !j.started.IsZero() {
		st.QueueMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	} else if !j.finished.IsZero() {
		st.QueueMS = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}

// SetRunning moves a queued job to running. It reports false when the job
// is no longer queued (cancelled before its runner got to it).
func (j *Job) SetRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.m.met.jobsInFlight.Add(1)
	return true
}

// Publish appends a sample row whose index continues the log, wakes all
// streamers, and advances the job's durable high-water mark. Rows whose
// index is already in the log are dropped, so a deterministic re-run that
// replays from row 0 — a hand-off to another worker — extends the log
// exactly where the lost run stopped. A local run's indices are contiguous
// and every row is kept.
func (j *Job) Publish(s Sample) {
	j.mu.Lock()
	if s.Index != len(j.samples) {
		j.mu.Unlock()
		return
	}
	j.samples = append(j.samples, s)
	n := len(j.samples)
	j.cond.Broadcast()
	j.mu.Unlock()
	j.m.met.samples.Add(1)
	// On a resumed job the re-run's first k samples fall inside the
	// already-durable prefix and append nothing.
	j.m.journalProgress(j, n)
}

// Finish moves the job to a terminal state exactly once — later calls are
// no-ops — then settles its bookkeeping: job counters, the result cache
// (clean completions are memoized under the job's digest), recovery debt,
// and the journal's terminal record.
func (j *Job) Finish(state JobState, errMsg, reason string, result *JobResult) {
	j.finish(false, state, errMsg, reason, result)
}

// finish is Finish, restricted to still-queued jobs when queuedOnly is set.
// It reports whether this call made the transition.
func (j *Job) finish(queuedOnly bool, state JobState, errMsg, reason string, result *JobResult) bool {
	m := j.m
	j.mu.Lock()
	prev := j.state
	if prev.Terminal() || (queuedOnly && prev != JobQueued) {
		j.mu.Unlock()
		return false
	}
	j.state, j.errMsg, j.reason, j.result = state, errMsg, reason, result
	j.finished = time.Now()
	// Settle the bookkeeping before the transition is visible, so whoever
	// observes the terminal state also observes its counters, its cache
	// entry and the end of recovery.
	if prev == JobRunning {
		m.met.jobsInFlight.Add(-1)
		m.met.runDur.Observe(j.finished.Sub(j.started))
	}
	switch state {
	case JobDone:
		m.met.jobsDone.Add(1)
	case JobCancelled:
		m.met.jobsCancelled.Add(1)
	default:
		m.met.jobsFailed.Add(1)
	}
	if state == JobDone && m.results != nil && j.digest != "" && result != nil && !result.Cached {
		// The rows are terminal and append-only — safe to share with the
		// cache and every future hit. (Put itself drops partial results.)
		m.results.Put(j.digest, j.samples, result)
	}
	m.retireRecovery(j)
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel(nil)
	m.journalTerminal(j)
	return true
}

// Abandon stops the job's context and releases its streamers without a
// terminal transition: the journal keeps the job incomplete, so the next
// boot resumes it, exactly as after a kill -9.
func (j *Job) Abandon() {
	j.cancel(nil)
	j.mu.Lock()
	j.abandoned = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// wake re-evaluates every streamer's wait condition (used when a streaming
// client disconnects, so its goroutine can notice and leave).
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// waitSamples blocks until samples beyond from exist, the job is terminal
// (or abandoned), or ctx is cancelled; it returns the new samples (safe to
// read unlocked — the slice is append-only) and whether the log is final.
func (j *Job) waitSamples(ctx context.Context, from int) ([]Sample, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for from >= len(j.samples) && !j.state.Terminal() && !j.abandoned && ctx.Err() == nil {
		j.cond.Wait()
	}
	return j.samples[from:], j.state.Terminal() || j.abandoned
}

// Runner executes the jobs a Manager admits. The Manager owns the rest of a
// job's lifecycle — admission, the job table, the sample log, the terminal
// transition, journaling and boot recovery — so a daemon and a fleet
// coordinator differ only in their Runner: the local one runs jobs
// in-process, a remote one places them on workers and relays their rows.
type Runner interface {
	// Env returns the environment specs are normalized and digested under,
	// and false while none is known (submissions then go to Start as sent).
	Env() (NormEnv, bool)
	// FleetQueries returns the service-wide unique-node charge, reported by
	// jobs served from the result cache.
	FleetQueries() int64
	// Start launches an admitted job. It must enter the job in the table
	// with Manager.Register (the local runner does so in the same critical
	// section as its enqueue) and returns ErrQueueFull, ErrClosed, a
	// *ShedError or a *RelayedError when the job cannot be taken.
	Start(j *Job) error
	// Resume re-launches jobs recovered incomplete from the journal; they
	// are already registered, in submission order.
	Resume(jobs []*Job)
	// Cancel cancels a job; the runner finishes it as cancelled.
	Cancel(j *Job)
	// Close stops the runner once the manager has stopped admitting; jobs
	// are every registered job. When it returns, no goroutine of the runner
	// may still be executing a job, except the local runner's loops, which
	// the manager waits for itself.
	Close(jobs []*Job)
}

// ErrQueueFull is returned by Submit when admission control rejects a job
// because the bounded queue is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after the manager has been closed.
var ErrClosed = errors.New("serve: manager closed")

// ShedError is a typed load-shedding refusal from a Runner: the submit route
// answers it with a 503 carrying Reason and a retry hint.
type ShedError struct{ Reason string }

func (e *ShedError) Error() string { return "serve: shed: " + e.Reason }

// RelayedError is a remote executor's refusal held for verbatim relay: its
// status, Retry-After hint and body reach the client unchanged.
type RelayedError struct {
	Code       int
	RetryAfter string
	Body       []byte
}

func (e *RelayedError) Error() string {
	return fmt.Sprintf("serve: relayed %d: %s", e.Code, e.Body)
}

// isShed reports whether a Start error is load shedding (a 503) rather than
// a rejection of the spec.
func isShed(err error) bool {
	var se *ShedError
	var re *RelayedError
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) ||
		errors.As(err, &se) || (errors.As(err, &re) && re.Code == http.StatusServiceUnavailable)
}

// Config bounds the service's concurrency. Zero fields select defaults.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// Submissions beyond it fail fast with ErrQueueFull — the service
	// sheds load instead of building an unbounded backlog.
	QueueDepth int
	// Runners is the number of jobs run concurrently (default 2).
	Runners int
	// WorkerBudget is the global pool of estimation-worker slots carved up
	// among running jobs (default 4·Runners). A job holds exactly its
	// normalized Workers slots for its whole run — never a dynamic share,
	// which would break per-(seed, workers) determinism.
	WorkerBudget int
	// MaxWorkersPerJob clamps a spec's Workers (default WorkerBudget).
	MaxWorkersPerJob int
	// Retention is how long a terminal job's record (status, result, and
	// streamed samples) stays queryable after the job finishes; a
	// background sweeper evicts older records so the jobs map of a daemon
	// serving millions of requests stays bounded by the active window
	// instead of growing forever. Zero selects the default (15 minutes);
	// negative disables eviction. Running and queued jobs are never
	// evicted.
	Retention time.Duration
	// SweepInterval is how often the sweeper scans for expired records.
	// Zero selects the default: Retention/10, clamped to [1s, 1m].
	SweepInterval time.Duration
	// Journal, when non-nil, attaches the durability layer: job admissions,
	// durable-sample progress, and terminal statuses are journaled, and the
	// journal's replayed state is recovered at construction — terminal jobs
	// rehydrate into the retained table, incomplete jobs resume via a
	// deterministic re-run. Open it with OpenJournal; the manager takes
	// ownership and closes it on Close.
	Journal *Journal
	// CacheBytes bounds the content-addressed job result cache (see
	// cache.go): completed jobs are memoized by spec digest and repeat
	// submissions are served from the retained record with zero new walk
	// steps or charges. Zero selects DefaultCacheBytes (64 MiB); negative
	// disables the cache.
	CacheBytes int64
	// Logf, when non-nil, receives one line per job admission (id + digest,
	// and whether it was served from the result cache). weserve wires it to
	// its process log.
	Logf func(format string, args ...any)
}

// DefaultRetention is the terminal-job record retention used when
// Config.Retention is zero.
const DefaultRetention = 15 * time.Minute

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 4 * c.Runners
	}
	if c.MaxWorkersPerJob <= 0 || c.MaxWorkersPerJob > c.WorkerBudget {
		c.MaxWorkersPerJob = c.WorkerBudget
	}
	if c.Retention == 0 {
		c.Retention = DefaultRetention
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.Retention / 10
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
		if c.SweepInterval > time.Minute {
			c.SweepInterval = time.Minute
		}
	}
	return c
}

// Manager owns the job lifecycle — admission, the job table, the terminal
// transition, result caching, journaling and recovery — and drives its
// Runner for execution.
type Manager struct {
	eng    *Engine // nil for a manager without a local engine (fleet coordinator)
	cfg    Config
	met    *Metrics
	runner Runner

	// results memoizes completed jobs by spec digest (nil when disabled).
	// Admission consults it before the runner, so hits bypass admission
	// control entirely — a repeat submission is served even while the queue
	// is shedding fresh work.
	results *ResultCache

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List
	seq    int64
	closed bool

	stopSweep chan struct{} // closed by Close to stop the retention sweeper

	// Durability state (see recover.go). jl is atomic so a crash-simulating
	// test can detach it mid-flight; Close swaps it out before closing.
	jl             atomic.Pointer[Journal]
	recovering     atomic.Bool
	recoverPending atomic.Int64 // resumed jobs not yet terminal
	recoverStart   time.Time
	recoveryDur    atomic.Int64 // ns, set when recovery completes

	wg sync.WaitGroup // sweeper and local runner goroutines
}

// NewManager starts a manager that runs jobs in-process on the engine, with
// cfg.Runners runner goroutines.
func NewManager(eng *Engine, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := newManager(eng, cfg)
	r := &localRunner{
		m:     m,
		queue: make(chan *Job, cfg.QueueDepth),
		free:  cfg.WorkerBudget,
		env: NormEnv{
			GraphID:          eng.GraphID(),
			NumNodes:         eng.NumNodes(),
			DefaultStart:     eng.defaultStart,
			DefaultWalkLen:   eng.defaultWalkLen,
			MaxWorkersPerJob: cfg.MaxWorkersPerJob,
		},
	}
	r.cond.L = &r.mu
	m.start(r)
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go r.loop()
	}
	return m
}

// NewRunnerManager starts a manager without a local engine whose jobs run
// on r — a fleet coordinator's remote runner. Only the lifecycle fields of
// cfg apply (Retention, SweepInterval, Journal, CacheBytes, Logf).
func NewRunnerManager(r Runner, cfg Config) *Manager {
	m := newManager(nil, cfg.withDefaults())
	m.start(r)
	return m
}

func newManager(eng *Engine, cfg Config) *Manager {
	m := &Manager{
		eng:          eng,
		cfg:          cfg,
		met:          NewMetrics(),
		jobs:         make(map[string]*Job),
		stopSweep:    make(chan struct{}),
		recoverStart: time.Now(),
	}
	if cfg.CacheBytes > 0 {
		m.results = NewResultCache(cfg.CacheBytes)
	}
	return m
}

// start attaches the runner, recovers the journal, and starts the sweeper.
func (m *Manager) start(r Runner) {
	m.runner = r
	if m.cfg.Journal != nil {
		m.jl.Store(m.cfg.Journal)
		m.recoverFromJournal(m.cfg.Journal)
		m.cfg.Journal.SetSnapshot(m.snapshotRecords)
	}
	if m.cfg.Retention > 0 {
		m.wg.Add(1)
		go m.sweeper()
	}
}

// sweeper periodically evicts terminal job records older than the
// configured retention.
func (m *Manager) sweeper() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopSweep:
			return
		case now := <-t.C:
			m.Sweep(now)
		}
	}
}

// Sweep evicts every terminal job that finished more than the configured
// retention before now, freeing its record (status, result, samples) for
// garbage collection, and returns how many it evicted. Queued and running
// jobs are untouched — eviction is purely a bookkeeping bound, it never
// affects job execution. Exposed so tests (and operators embedding the
// manager) can force a sweep; the background sweeper calls it on its
// interval.
func (m *Manager) Sweep(now time.Time) int {
	if m.cfg.Retention <= 0 {
		return 0
	}
	cutoff := now.Add(-m.cfg.Retention)
	m.mu.Lock()
	var evictedIDs []string
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && j.expired(cutoff) {
			delete(m.jobs, id)
			evictedIDs = append(evictedIDs, id)
			continue
		}
		kept = append(kept, id)
	}
	// Re-slice so the order slice's tail does not pin evicted id strings.
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = ""
	}
	m.order = kept
	m.mu.Unlock()
	if len(evictedIDs) > 0 {
		m.met.jobsEvicted.Add(int64(len(evictedIDs)))
		// Journal outside m.mu: swept records must not resurrect at boot.
		m.journalEvicted(evictedIDs)
	}
	return len(evictedIDs)
}

// Metrics returns the manager's metric registry (for the /metrics endpoint).
func (m *Manager) Metrics() *Metrics { return m.met }

// Engine returns the engine the manager runs jobs on (nil for a manager
// built with NewRunnerManager).
func (m *Manager) Engine() *Engine { return m.eng }

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// NormEnv returns the normalization environment this manager admits specs
// under. The cluster coordinator mirrors it fleet-side so coordinator and
// worker compute identical digests.
func (m *Manager) NormEnv() NormEnv {
	env, _ := m.runner.Env()
	return env
}

// ResultCacheStats returns a snapshot of the job result cache's meters
// (Enabled false, all zeros, when the cache is disabled).
func (m *Manager) ResultCacheStats() ResultCacheStats {
	if m.results == nil {
		return ResultCacheStats{}
	}
	return m.results.Stats()
}

// Draining reports whether Close has begun: the manager no longer accepts
// jobs and is cancelling in-flight work. Surfaced by /readyz.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Submit normalizes a spec, digests it, and admits the job. Admission
// consults the result cache first: a digest already memoized is served as
// an instantly-terminal job — zero walk steps, zero charges, no queue slot,
// no estimation workers — so repeat submissions are immune to overload
// shedding. Otherwise the runner starts the job or refuses it (ErrQueueFull
// when the bounded queue is at capacity), never blocking on execution.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	var digest string
	if env, ok := m.runner.Env(); ok {
		norm, err := NormalizeSpec(spec, env)
		if err != nil {
			m.met.jobsRejected.Add(1)
			return nil, err
		}
		spec, digest = norm, SpecDigest(env, norm)
	}
	var rows []Sample
	var cres *JobResult
	cached := false
	if m.results != nil && digest != "" {
		rows, cres, cached = m.results.Get(digest)
	}
	job := m.newJob(spec, digest, time.Now())
	if m.journal() != nil {
		job.journaled = make(chan struct{})
	}
	var err error
	if cached {
		job.samples = rows
		err = m.Register(job)
	} else {
		err = m.runner.Start(job)
	}
	if err != nil {
		shed := isShed(err)
		if shed {
			m.met.jobsShed.Add(1)
		}
		if !shed || errors.Is(err, ErrQueueFull) {
			m.met.jobsRejected.Add(1)
		}
		return nil, err
	}
	// The accepted record is appended outside m.mu (the journal may rotate,
	// and rotation snapshots through m.mu); the runner and any canceller
	// wait on job.journaled, so admission is always the job's first durable
	// record.
	if job.journaled != nil {
		m.journalAccepted(job)
		close(job.journaled)
	}
	m.met.jobsSubmitted.Add(1)
	if cached {
		// A fresh summary charging zero queries over the original run's rows;
		// the terminal record is self-contained, so the hit survives restart
		// exactly like a live run's record.
		job.Finish(JobDone, "", "", &JobResult{
			Samples:        cres.Samples,
			Queries:        0,
			FleetQueries:   m.runner.FleetQueries(),
			AcceptanceRate: cres.AcceptanceRate,
			Estimate:       cres.Estimate,
			Nodes:          cres.Nodes,
			Cached:         true,
		})
	}
	if m.cfg.Logf != nil {
		if cached {
			m.cfg.Logf("job %s served from result cache digest=%s", job.id, digest)
		} else {
			m.cfg.Logf("job %s accepted digest=%s", job.id, digest)
		}
	}
	return job, nil
}

// Register assigns a job its id and enters it in the job table; it fails
// with ErrClosed once Close has begun. Runners call it from Start.
func (m *Manager) Register(j *Job) error { return m.register(j, nil) }

// register is Register with an enqueue step in the same critical section:
// Close sets closed under m.mu before it closes the local queue (so the
// send cannot race a closed channel), and a job is registered if and only
// if its enqueue succeeded.
func (m *Manager) register(j *Job, enqueue func(*Job) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.seq++
	j.seq = m.seq
	j.id = fmt.Sprintf("job-%06d", m.seq)
	if enqueue != nil && !enqueue(j) {
		return ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all known jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	return jobs
}

// List returns snapshots of all known jobs in submission order.
func (m *Manager) List() []JobStatus {
	jobs := m.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// RetainedJobs returns the number of job records currently held — queued,
// running, and terminal records the retention sweeper has not yet evicted.
func (m *Manager) RetainedJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Cancel cancels the job with the given id; it reports whether the id was
// known.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if ok {
		m.runner.Cancel(j)
	}
	return ok
}

// Close stops accepting jobs, stops the runner (the local runner cancels
// everything in flight and drains), and closes the journal.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.stopSweep)
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	m.runner.Close(jobs)
	m.wg.Wait()
	// Every terminal record is appended by now; a graceful drain leaves the
	// journal flushed and fsynced, so the next boot recovers exactly the
	// drained state.
	if jl := m.jl.Swap(nil); jl != nil {
		jl.Close()
	}
}
