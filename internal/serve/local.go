package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// localRunner executes jobs in-process: a bounded queue (admission
// control), cfg.Runners runner goroutines, and the global estimation-worker
// budget per-job worker counts are carved from.
type localRunner struct {
	m     *Manager
	env   NormEnv
	queue chan *Job
	recWG sync.WaitGroup // boot-recovery enqueue goroutine

	mu   sync.Mutex
	cond sync.Cond // worker-slot availability
	free int       // estimation-worker slots currently free
}

func (r *localRunner) Env() (NormEnv, bool) { return r.env, true }

func (r *localRunner) FleetQueries() int64 { return r.m.eng.CacheStats().Queries }

// Start enqueues the job without blocking: ErrQueueFull when the bounded
// queue is at capacity.
func (r *localRunner) Start(j *Job) error {
	return r.m.register(j, func(j *Job) bool {
		select {
		case r.queue <- j:
			return true
		default:
			return false
		}
	})
}

// Resume enqueues recovered jobs asynchronously: the resumed backlog may
// exceed the queue depth, and blocking construction on runner drain would
// deadlock boot.
func (r *localRunner) Resume(jobs []*Job) {
	r.recWG.Add(1)
	go func() {
		defer r.recWG.Done()
		for _, j := range jobs {
			select {
			case r.queue <- j:
			case <-r.m.stopSweep:
				// Shutdown mid-recovery: Close cancels the registered jobs;
				// their cancelled terminals are journaled there.
				return
			}
		}
	}()
}

// Cancel cancels the job's context — a running job's workers abandon
// in-flight work within one batch (see core.SampleNParallelCtx) and its
// runner finishes it — and finishes a still-queued job right here.
func (r *localRunner) Cancel(j *Job) {
	j.cancel(nil) // cause defaults to context.Canceled
	j.finish(true, JobCancelled, context.Canceled.Error(), "", nil)
}

// Close cancels every job and closes the queue; the runners drain it and
// exit (the manager waits for them).
func (r *localRunner) Close(jobs []*Job) {
	// The boot-recovery enqueuer must stop before the queue closes.
	r.recWG.Wait()
	for _, j := range jobs {
		r.Cancel(j)
	}
	close(r.queue)
}

// acquire blocks until n estimation-worker slots are free and takes them.
// n is clamped to WorkerBudget at normalization, so acquisition always
// eventually succeeds.
func (r *localRunner) acquire(n int) {
	r.mu.Lock()
	for r.free < n {
		r.cond.Wait()
	}
	r.free -= n
	r.mu.Unlock()
}

func (r *localRunner) release(n int) {
	r.mu.Lock()
	r.free += n
	r.cond.Broadcast()
	r.mu.Unlock()
}

// loop is one of cfg.Runners job loops: pop, carve workers from the global
// budget, run, release, finish.
func (r *localRunner) loop() {
	m := r.m
	defer m.wg.Done()
	for job := range r.queue {
		// A journaled job must not run (and so must not append progress)
		// before its accepted record is durable.
		job.waitJournaled()
		if !job.SetRunning() { // cancelled while queued
			continue
		}
		m.met.queueWait.Observe(job.started.Sub(job.submitted))
		workers := job.spec.Workers
		r.acquire(workers)
		result, err := m.run(job)
		r.release(workers)
		m.finish(job, result, err)
	}
}

// finish classifies a run's outcome and finishes the job. On failure the
// typed cause becomes JobStatus.FailureReason and any partial result
// (samples produced before the failure) is preserved with Partial set.
func (m *Manager) finish(job *Job, result *JobResult, err error) {
	var bu *osn.BackendUnavailableError
	switch {
	case err == nil:
		job.Finish(JobDone, "", "", result)
	case errors.Is(err, context.Canceled) && !errors.As(err, &bu):
		job.Finish(JobCancelled, err.Error(), "", nil)
	default:
		reason := ""
		switch {
		case errors.As(err, &bu):
			reason = ReasonBackendUnavailable
		case errors.Is(err, context.DeadlineExceeded):
			reason = ReasonDeadlineExceeded
		}
		if result != nil {
			result.Partial = true
		}
		job.Finish(JobFailed, err.Error(), reason, result)
	}
}

// run executes one job on the calling runner goroutine. On failure it
// returns the samples produced so far as a partial result alongside the
// error, so degradation is graceful: a backend outage or deadline overrun
// voids only the remainder of the job, never the work already streamed.
func (m *Manager) run(job *Job) (*JobResult, error) {
	spec := job.spec
	d, err := walk.ByName(spec.Design)
	if err != nil {
		return nil, err
	}
	// The run context layers, derived from the job's cancellable context:
	// an optional per-job deadline, and the failure-cancel hook that lets
	// the resilience middleware cancel this job with a typed
	// BackendUnavailableError when its retry policy gives up. Both causes
	// surface through context.Cause and are classified by finish.
	runCtx := job.ctx
	if spec.DeadlineMS > 0 {
		var cancelDL context.CancelFunc
		runCtx, cancelDL = context.WithTimeout(runCtx, time.Duration(spec.DeadlineMS)*time.Millisecond)
		defer cancelDL()
	}
	runCtx = osn.WithFailureCancel(runCtx, job.cancel)
	rng := fastrand.New(spec.Seed)
	c := m.eng.NewClientCtx(runCtx, rng)

	switch spec.Type {
	case TypeWalkPath:
		// One plain forward walk, streamed node by node, with a
		// cancellation check per step.
		u := *spec.Start
		for i := 1; i <= spec.Count; i++ {
			if runCtx.Err() != nil {
				return &JobResult{
					Samples:      i - 1,
					Queries:      c.Queries(),
					FleetQueries: c.TotalQueries(),
				}, context.Cause(runCtx)
			}
			u = d.Step(c, u, rng)
			job.Publish(Sample{Index: i - 1, Node: u, Steps: i, Cost: c.TotalQueries()})
		}
		return &JobResult{
			Samples:      spec.Count,
			Queries:      c.Queries(),
			FleetQueries: c.TotalQueries(),
		}, nil

	case TypeSample, TypeEstimateMean:
		cfg := core.Config{
			Design:         d,
			Start:          *spec.Start,
			WalkLength:     spec.WalkLength,
			BackwardReps:   spec.BackwardReps,
			VarianceBudget: spec.VarianceBudget,
		}
		if !spec.NoCrawl {
			// Reuse (or build-and-memoize) the crawl table instead of
			// letting the sampler crawl per job.
			ct, err := m.eng.crawlTable(runCtx, c, d, *spec.Start, spec.CrawlHops)
			if err != nil {
				return nil, primaryCause(runCtx, err)
			}
			cfg.Crawl = ct
		}
		s, err := core.NewSampler(c, cfg, rng)
		if err != nil {
			return nil, err
		}
		s.OnSample = func(ev core.SampleEvent) {
			job.Publish(Sample{Index: ev.Index, Node: ev.Node, Steps: ev.Steps, Cost: ev.CostAfter})
			if ev.Index == 0 {
				// A stream writer woken by the first row is queued on this
				// P behind the rest of the job and runs only when another
				// P steals it; once the host is not busy enough to keep a P
				// spinning, that waits on a thread wake-up. Yield so the
				// first row goes out now.
				runtime.Gosched()
			}
		}
		res, err := s.SampleNParallelCtx(runCtx, spec.Count, spec.Workers)
		out := &JobResult{
			Samples:        res.Len(),
			Queries:        s.Queries(),
			FleetQueries:   c.TotalQueries(),
			AcceptanceRate: s.AcceptanceRate(),
			Nodes:          res.Nodes,
		}
		if err != nil {
			// The samplers return the in-order prefix drawn before the
			// error; keep it as the partial result.
			return out, primaryCause(runCtx, err)
		}
		if spec.Type == TypeEstimateMean {
			if runCtx.Err() != nil {
				return out, context.Cause(runCtx)
			}
			est, err := agg.EstimateMean(c, d, spec.Attr, res.Nodes)
			if err != nil {
				return out, primaryCause(runCtx, err)
			}
			out.Estimate = &est
			out.Queries = s.Queries()
			out.FleetQueries = c.TotalQueries()
		}
		return out, nil
	}
	return nil, fmt.Errorf("serve: unknown job type %q", spec.Type)
}

// primaryCause resolves which error really failed the run: when the run
// context was cancelled, its cause (the typed backend failure, the deadline,
// or the user's cancel) is the primary failure and err is downstream fallout
// — a backend giving up mid-access degrades that access to an empty answer,
// and whatever the sampler tripped over next (an impossible walk state, a
// missing attribute) is a symptom, not the cause.
func primaryCause(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}
