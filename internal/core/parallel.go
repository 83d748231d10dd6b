package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fastrand"
	"repro/internal/walk"
)

// This file is the sampling driver: a speculative walk→estimate→accept
// pipeline (run) that every Sampler call goes through, sequential calls at
// width 1. The concurrency model — what is shared, what is per-worker, and
// the determinism contract — is documented in DESIGN.md.
//
// Shared across workers: the osn.SharedCache (neighbor lists + unique-node
// accounting) and the immutable CrawlTable. Per worker: an osn.Client (own
// cost meter, reading the shared cache) and an Estimator (own StepsTaken
// meter, own walk substreams).

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

// generate draws size candidates into *b from the sampler stream and runs
// their forward walks. A sampler keeps two batches, the one being
// estimated and the speculative next one, and reuses their storage.
func (s *Sampler) generate(b *[]pcand, size int, lockstep bool) {
	if cap(*b) < size {
		*b = make([]pcand, size)
	}
	*b = (*b)[:size]
	for i := range *b {
		s.draw(&(*b)[i])
	}
	s.walkBatch(*b, lockstep)
}

// SampleNParallel draws n samples like SampleN but runs the backward
// estimates — the dominant cost of WALK-ESTIMATE — on `workers` goroutines
// (see run). At one worker it is SampleN.
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
// batch is generated or dispatched, and by every estimation worker before
// each chunk of backward walks. Once ctx is cancelled, in-flight
// candidates are abandoned (their slot resolves to ctx's error instead of an
// estimate) and no further forward walk, prefetch, or backward walk starts —
// so the run stops charging queries within one batch. The checks consume no
// RNG and cancelled runs return an error, so the per-seed determinism
// contract of *completed* runs is untouched.
func (s *Sampler) SampleNParallelCtx(ctx context.Context, n, workers int) (walk.Result, error) {
	if workers < 1 {
		return walk.Result{}, fmt.Errorf("core: need >= 1 worker, got %d", workers)
	}
	return s.run(ctx, n, workers)
}

// pool returns the estimation workers of a width above 1: one Estimator per
// worker over a client forked from the sampler's — forking promotes the
// private cache into an osn.SharedCache all workers and the producer share.
// The pool persists across calls, and with it the workers' clients; a call
// of another width replaces it, and Queries keeps the retired workers'
// charges. A fork's RNG only re-randomizes type-1 restrictions, which void
// the determinism contract anyway, so it takes no sampler draw.
func (s *Sampler) pool(workers int) []*Estimator {
	if len(s.workerEsts) == workers {
		return s.workerEsts
	}
	for _, e := range s.workerEsts {
		s.retiredQueries += e.Client.Queries()
	}
	s.workerEsts = make([]*Estimator, workers)
	for w := range s.workerEsts {
		s.workerEsts[w] = &Estimator{
			Client: s.c.Fork(fastrand.New(int64(w))),
			Design: s.cfg.Design,
			Start:  s.cfg.Start,
			Crawl:  s.est.Crawl,
		}
	}
	return s.workerEsts
}

// run draws n samples through the pipeline at the given width.
//
// The producer (the calling goroutine) generates candidates in batches,
// drawing each candidate's forward-walk seed, estimation seed and
// acceptance uniform from the sampler's RNG and running the forward walks.
// The consumer then applies bootstrap updates and acceptance tests in
// candidate order.
//
// At width 1 a batch is one candidate, estimated inline on the sampler's
// own estimator: draw, walk, estimate, accept. Above width 1 a batch of
// max(2·workers, 8) candidates is estimated in one chunk per worker while
// the producer speculatively generates the next batch.
//
// Every random decision is made in order by the producer and consumer or
// derived from a candidate's three draws, the k-th candidate taking the
// k-th triple at every width (see draw), so the node sequence is a
// deterministic function of the sampler seed alone — see the contract in
// DESIGN.md (type-1 neighbor-list restrictions, which re-randomize per
// call, void it).
func (s *Sampler) run(ctx context.Context, n, workers int) (walk.Result, error) {
	if n < 0 {
		return walk.Result{}, fmt.Errorf("core: negative sample count %d", n)
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

	// Kernel selection (lockstep): forward and backward walks run in
	// lockstep when the backend answers batch requests concurrently, one
	// after another otherwise. Either way every walk draws from its own
	// substream, so results — and therefore the per-seed determinism
	// contract — do not depend on the kernel, nor on how a batch is
	// chunked across workers.
	lockstep := s.lockstep()

	fullBatch := 1
	var jobs chan []pcand
	var wg sync.WaitGroup
	if workers > 1 {
		fullBatch = max(2*workers, 8)
		jobs = make(chan []pcand, workers)
		for _, e := range s.pool(workers) {
			go func(e *Estimator) {
				for chunk := range jobs {
					if err := ctx.Err(); err != nil {
						// Abandon promptly: the batch still drains (the
						// barrier stays intact) but no further backward walk
						// starts, so no further query is charged. Cause, not
						// Err: a typed backend failure that cancelled the job
						// context must surface as itself, not as a bare
						// context.Canceled.
						cause := context.Cause(ctx)
						for i := range chunk {
							chunk[i].Err = cause
						}
					} else {
						s.estimate(e, chunk, lockstep)
					}
					wg.Done()
				}
			}(e)
		}
		defer close(jobs)
	}

	attemptsSince := 0   // attempts since the last accepted sample
	var stepsSince int64 // walk steps since the last accepted sample
	var next []pcand     // the batch speculated for the next round, if any

	// consume applies bootstrap updates and acceptance tests in candidate
	// order. It reports done=true once n samples are accepted. A cancelled
	// context is authoritative here: even a batch that raced to completion
	// resolves to ctx's error, so a run either never observed cancellation
	// (and is bit-identical to an uncancelled one) or returns an error —
	// there is no third state.
	consume := func(cands []pcand) (done bool, err error) {
		if err := ctx.Err(); err != nil {
			return false, context.Cause(ctx)
		}
		for i := range cands {
			cd := &cands[i]
			if cd.Err != nil {
				return false, cd.Err
			}
			s.attempts++
			attemptsSince++
			s.backwardSteps += cd.Steps
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
						// Account the estimation work of the rest of the batch,
						// and hand back the draws not consumed, in draw order.
						for _, cd := range cands[i+1:] {
							if cd.Err == nil {
								s.backwardSteps += cd.Steps
							}
						}
						s.unused = append(append(append([]pcand(nil), cands[i+1:]...), next...), s.unused...)
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
		if s.accepted == 0 {
			return fullBatch
		}
		rate := float64(s.accepted) / float64(s.attempts)
		need := int(2*float64(n-len(res.Nodes))/rate) + 1
		return min(max(need, workers), fullBatch)
	}

	for slot := 0; ; slot ^= 1 {
		// Producer-side cancellation point: between batches, before any of
		// the next batch's queries (forward walks, prefetch, estimates) are
		// charged.
		if err := ctx.Err(); err != nil {
			return res, context.Cause(ctx)
		}
		if next == nil {
			s.generate(&s.batches[slot], batchSize(), lockstep)
		}
		next = nil
		cur := s.batches[slot]
		if workers == 1 {
			s.estimate(s.est, cur, lockstep)
		} else {
			// Batched frontier prefetch, at dispatch time: the batch's
			// candidate endpoints are exactly the nodes every estimation
			// worker queries first (each backward walk starts at its
			// candidate), so issue the whole frontier as one batched fill —
			// one shared-cache locked pass per shard and one backend round
			// trip — before the workers fan out. Only batches that are
			// actually estimated are prefetched, so every prefetched node is
			// accessed by the workers regardless and the query-cost axis is
			// untouched. Prefetch consumes no RNG and is a no-op under type-1
			// restrictions, preserving the determinism contract.
			s.frontier = s.frontier[:0]
			for i := range cur {
				s.frontier = append(s.frontier, int32(cur[i].V))
			}
			s.c.Prefetch(s.frontier)
			// One contiguous chunk per worker: wide lanes amortize the
			// batched frontier resolutions without idling workers.
			chunkSz := (len(cur) + workers - 1) / workers
			for lo := 0; lo < len(cur); lo += chunkSz {
				wg.Add(1)
				jobs <- cur[lo:min(lo+chunkSz, len(cur))]
			}
			// Speculate the next batch while the pool estimates cur — unless
			// cur alone will in all likelihood finish the run, in which case
			// speculating would only burn wasted forward walks, or the run
			// is cancelled and about to error out of consume.
			likelyAccepts := 0
			if s.attempts > 0 {
				likelyAccepts = int(2 * float64(s.accepted) / float64(s.attempts) * float64(len(cur)))
			}
			if likelyAccepts < n-len(res.Nodes) && ctx.Err() == nil {
				s.generate(&s.batches[slot^1], batchSize(), lockstep)
				next = s.batches[slot^1]
			}
			wg.Wait()
		}
		done, err := consume(cur)
		if err != nil || done {
			return res, err
		}
	}
}
