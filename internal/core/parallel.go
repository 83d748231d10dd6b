package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fastrand"
	"repro/internal/walk"
)

// This file is the concurrent WALK-ESTIMATE engine: a speculative
// walk→estimate→accept pipeline (SampleNParallel). The concurrency model —
// what is shared, what is per-worker, and the determinism contract — is
// documented in DESIGN.md.
//
// Shared across workers: the osn.SharedCache (neighbor lists + unique-node
// accounting), the immutable CrawlTable, and the frozen WS-BW history.
// Per worker: an osn.Client (own cost meter, reading the shared cache), an
// Estimator (own scratch buffer, own StepsTaken meter, own walk
// substreams).

// pcand is one candidate of a batch. The producer fills its draws and
// forward-walk endpoint (V); exactly one estimator fills PHat, Steps, Err
// and q; the consumer reads both after the batch barrier, so no field is
// ever written and read concurrently.
type pcand struct {
	BatchCand         // V, estimation Seed; PHat, Steps, Err
	fwdSeed   int64   // seed of the forward walk's substream
	acceptU   float64 // pre-drawn uniform for the acceptance test
	q         float64 // target weight q(v)
}

// SampleNParallel draws n samples like SampleN but runs the backward
// estimates — the dominant cost of WALK-ESTIMATE — on `workers` goroutines.
//
// Pipeline: the producer (the calling goroutine) generates forward-walk
// candidates in batches, drawing each candidate's forward-walk seed,
// estimation seed and acceptance uniform from the sampler's RNG at
// generation time (the same three draws SampleN takes); a worker
// pool estimates a batch while the producer speculatively generates the
// next; the consumer then applies bootstrap updates and acceptance tests in
// candidate arrival order. Because every random decision is either made
// sequentially by the producer/consumer or derived from a per-candidate
// seed, the returned node sequence is a deterministic function of (sampler
// seed, workers) regardless of goroutine scheduling — see the determinism
// contract in DESIGN.md (type-1 neighbor-list restrictions, which
// re-randomize per call, void it).
//
// Workers share the client's neighbor cache (promoting it to an
// osn.SharedCache on first use), so CostAfter reports the fleet-wide
// unique-node cost via TotalQueries. Speculative candidates that are
// generated but never consumed still pay their forward-walk and estimation
// steps, exactly as a real speculative crawler would.
func (s *Sampler) SampleNParallel(n, workers int) (walk.Result, error) {
	return s.SampleNParallelCtx(context.Background(), n, workers)
}

// SampleNParallelCtx is SampleNParallel with cancellation. The context is
// checked at the two places work is committed: by the producer before each
// batch is prefetched and dispatched, and by every estimation worker before
// each candidate's backward walks. Once ctx is cancelled, in-flight
// candidates are abandoned (their slot resolves to ctx's error instead of an
// estimate) and no further forward walk, prefetch, or backward walk starts —
// so the run stops charging queries within one batch. The checks consume no
// RNG and cancelled runs return an error, so the per-(seed, workers)
// determinism contract of *completed* runs is untouched.
func (s *Sampler) SampleNParallelCtx(ctx context.Context, n, workers int) (walk.Result, error) {
	if n < 0 {
		return walk.Result{}, fmt.Errorf("core: negative sample count %d", n)
	}
	if workers < 1 {
		return walk.Result{}, fmt.Errorf("core: need >= 1 worker, got %d", workers)
	}
	if workers == 1 {
		return s.SampleNCtx(ctx, n)
	}
	res := walk.Result{
		Nodes:     make([]int, 0, n),
		Steps:     make([]int, 0, n),
		CostAfter: make([]int64, 0, n),
	}
	if n == 0 {
		return res, nil
	}

	t := s.cfg.WalkLength
	maxAttempts := s.cfg.maxAttempts()

	// Per-worker estimators over forked clients. Forking promotes s.c's
	// private cache into a SharedCache all workers (and the producer) share.
	// The pool persists across calls, and with it the workers' clients.
	if len(s.workerEsts) != workers {
		s.workerEsts = make([]*Estimator, workers)
		for w := range s.workerEsts {
			wc := s.c.Fork(fastrand.New(s.rng.Int63()))
			s.workerEsts[w] = &Estimator{
				Client: wc,
				Design: s.cfg.Design,
				Start:  s.cfg.Start,
				Crawl:  s.est.Crawl,
				Hist:   s.snapHist,
			}
		}
	}
	ests := s.workerEsts

	// Kernel selection (lockstep): forward and backward walks run in
	// lockstep when the backend answers batch requests concurrently, one
	// after another otherwise. Either way every walk draws from its own
	// substream, so results — and therefore the (seed, workers)
	// determinism contract — do not depend on the kernel, nor on how a
	// batch is chunked across workers.
	lockstep := s.lockstep()

	batch := 2 * workers
	if batch < 8 {
		batch = 8
	}
	jobs := make(chan []*pcand, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		go func(e *Estimator) {
			var bcs []*BatchCand // reused lane headers
			for chunk := range jobs {
				if err := ctx.Err(); err != nil {
					// Abandon promptly: the batch still drains (the barrier
					// stays intact) but no further backward walk starts, so
					// no further query is charged. Cause, not Err: a typed
					// backend failure that cancelled the job context must
					// surface as itself, not as a bare context.Canceled.
					cause := context.Cause(ctx)
					for _, cd := range chunk {
						cd.Err = cause
					}
					wg.Done()
					continue
				}
				s.estimate(e, chunk, lockstep, &bcs)
				wg.Done()
			}
		}(ests[w])
	}
	defer close(jobs)

	// generate draws one batch's candidates from the sampler stream and
	// runs their forward walks on the producer goroutine (recording WS-BW
	// history), then decides whether the batch sees a refreshed frozen
	// history.
	generate := func(size int) []*pcand {
		out := make([]*pcand, size)
		for i := range out {
			out[i] = &pcand{}
			s.draw(out[i])
		}
		s.walkBatch(out, lockstep)
		// Throttled refresh: only when the live history has grown ≥ 50%
		// since the last one (copying it every batch would serialize the
		// pipeline). Estimating against a slightly stale history is still
		// unbiased — any full-support pick distribution is (see the WS-BW
		// note in backward.go) — and the schedule depends only on walk
		// counts, so determinism is preserved. Workers may still be
		// reading the frozen history, so the copy waits for syncFrozen.
		if s.hist != nil && s.hist.Walks() >= s.snapWalks+s.snapWalks/2 {
			s.snapWalks = s.hist.Walks()
		}
		return out
	}

	// syncFrozen performs a refresh generate decided, copying the live
	// history into the frozen one. It runs only while no worker reads the
	// frozen history: before a batch is dispatched, and on the way out, so
	// a refresh decided for a speculative batch that is never dispatched
	// still lands before a later call (or a sequential one in between)
	// records more walks. Both are points where the live history holds
	// exactly the walks it held when the refresh was decided.
	syncFrozen := func() {
		if s.hist != nil && s.snapHist.Walks() != s.snapWalks {
			s.hist.syncTo(s.snapHist)
		}
	}
	defer syncFrozen()

	attemptsSince := 0   // attempts since the last accepted sample
	var stepsSince int64 // walk steps since the last accepted sample

	// consume applies bootstrap updates and acceptance tests in candidate
	// order. It reports done=true once n samples are accepted. A cancelled
	// context is authoritative here: even a batch that raced to completion
	// resolves to ctx's error, so a run either never observed cancellation
	// (and is bit-identical to an uncancelled one) or returns an error —
	// there is no third state.
	consume := func(cands []*pcand) (done bool, err error) {
		if err := ctx.Err(); err != nil {
			return false, context.Cause(ctx)
		}
		for i, cd := range cands {
			if cd.Err != nil {
				return false, cd.Err
			}
			s.attempts++
			attemptsSince++
			s.est.StepsTaken += cd.Steps
			stepsSince += int64(t) + cd.Steps
			if cd.q > 0 {
				s.boot.Observe(cd.PHat / cd.q)
				beta, err := s.boot.AcceptProb(cd.PHat, cd.q)
				if err != nil {
					return false, err
				}
				if cd.acceptU < beta {
					s.accepted++
					res.Nodes = append(res.Nodes, cd.V)
					res.Steps = append(res.Steps, int(stepsSince))
					res.CostAfter = append(res.CostAfter, s.c.TotalQueries())
					if s.OnSample != nil {
						k := len(res.Nodes) - 1
						s.OnSample(SampleEvent{Index: k, Node: cd.V,
							Steps: res.Steps[k], CostAfter: res.CostAfter[k]})
					}
					stepsSince = 0
					attemptsSince = 0
					if len(res.Nodes) == n {
						// Account the estimation work of the remaining
						// already-estimated speculative candidates.
						for _, rest := range cands[i+1:] {
							if rest.Err == nil {
								s.est.StepsTaken += rest.Steps
							}
						}
						return true, nil
					}
				}
			}
			if attemptsSince >= maxAttempts {
				return false, fmt.Errorf("core: no candidate accepted after %d attempts (walk length %d likely far too short for this graph)", maxAttempts, t)
			}
		}
		return false, nil
	}

	// batchSize bounds speculative waste near the end of the run: once the
	// observed acceptance rate suggests remaining samples need fewer
	// candidates than a full batch (with 2x headroom), shrink accordingly.
	// All inputs are deterministic counters, so sizing is deterministic too.
	batchSize := func() int {
		rem := n - len(res.Nodes)
		if s.accepted == 0 {
			return batch
		}
		rate := float64(s.accepted) / float64(s.attempts)
		need := int(2*float64(rem)/rate) + 1
		if need < workers {
			need = workers
		}
		if need < batch {
			return need
		}
		return batch
	}

	cur := generate(batchSize())
	for {
		// Producer-side cancellation point: between batches, before any of
		// the next batch's queries (prefetch, estimates) are charged.
		if err := ctx.Err(); err != nil {
			return res, context.Cause(ctx)
		}
		// Batched frontier prefetch, at dispatch time: the batch's candidate
		// endpoints are exactly the nodes every estimation worker queries
		// first (each backward walk starts at its candidate), so issue the
		// whole frontier as one batched fill — one shared-cache locked pass
		// per shard and one backend round trip — before the workers fan out.
		// Prefetching here rather than in generate keeps the query-cost axis
		// untouched: only batches that are actually estimated are
		// prefetched, so every prefetched node is accessed by the workers
		// regardless (a speculative batch discarded after the run completes
		// is never estimated, and must not be charged). Prefetch consumes no
		// RNG and is a no-op under type-1 restrictions, preserving the
		// determinism contract.
		s.frontier = s.frontier[:0]
		for _, cd := range cur {
			s.frontier = append(s.frontier, int32(cd.V))
		}
		s.c.Prefetch(s.frontier)
		syncFrozen()
		// One contiguous chunk per worker: wide lanes amortize the batched
		// frontier resolutions without idling workers.
		chunkSz := (len(cur) + workers - 1) / workers
		for lo := 0; lo < len(cur); lo += chunkSz {
			hi := lo + chunkSz
			if hi > len(cur) {
				hi = len(cur)
			}
			wg.Add(1)
			jobs <- cur[lo:hi]
		}
		// Speculate the next batch while the pool estimates cur — unless
		// cur alone will in all likelihood finish the run, in which case
		// speculating would only burn wasted forward walks and estimates.
		var next []*pcand
		rem := n - len(res.Nodes)
		likelyAccepts := 0
		if s.attempts > 0 {
			likelyAccepts = int(2 * float64(s.accepted) / float64(s.attempts) * float64(len(cur)))
		}
		// A cancelled run is about to error out of consume — speculating a
		// next batch would only charge forward walks nobody will estimate.
		if likelyAccepts < rem && ctx.Err() == nil {
			next = generate(batchSize())
		}
		wg.Wait()
		done, err := consume(cur)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
		if next == nil {
			next = generate(batchSize())
		}
		cur = next
	}
}
