package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// libShape is a library workload's job shape: samples per job, estimation
// workers per job (1 is the sequential SampleN path), and closed-loop
// callers.
type libShape struct{ count, workers, callers int }

// lib-sim-par2 runs 8 callers of 8-sample jobs: each sample costs hundreds of
// 1 ms round trips, so one caller would finish too few jobs per window for
// steady percentiles and costs, while waiting callers leave the CPUs idle.
var (
	memSeq  = libShape{count: jobCount, workers: 1, callers: 1}
	memPar2 = libShape{count: jobCount, workers: 2, callers: 1}
	simPar2 = libShape{count: 8, workers: 2, callers: 8}
)

func setupLib(sim bool) func(params, *tracer) (*fixture, error) {
	return func(p params, tr *tracer) (*fixture, error) { return newFixture(p, tr, sim) }
}

func measureLib(shape libShape) func(*fixture, params, *tracer, *hostProbe) (*phase, error) {
	return func(fx *fixture, p params, tr *tracer, hp *hostProbe) (*phase, error) {
		return libLoop(fx, p, shape, tr, 0, hp), nil
	}
}

// libCaller is one closed-loop caller's share of a window.
type libCaller struct {
	ph                                   *phase
	fwd, back, lookups, sharedQ, sharedN int64
	attempts                             float64
	self                                 time.Duration
}

// libLoop runs library jobs in a closed loop — each caller starts its next
// job when the previous one returns — taking jobs from the job list in order
// until the window is over and the digest's jobs are done (or, with
// limit > 0, exactly limit jobs). A single caller pauses for hp between jobs
// when a probe is due; hp must be nil with several callers. A job is
// what a library user does per request: a fresh osn.Client, core.NewSampler
// over the shared crawl table, and SampleNParallel(count, workers), which is
// the sequential SampleN path at one worker.
func libLoop(fx *fixture, p params, shape libShape, tr *tracer, limit int, hp *hostProbe) *phase {
	var next atomic.Int64
	callers := make([]*libCaller, shape.callers)
	var wg sync.WaitGroup
	use0 := readUsage()
	deadline := use0.at.Add(p.window())
	for k := range callers {
		lc := &libCaller{ph: newPhase()}
		callers[k] = lc
		net, sc := fx.net, (*jobScope)(nil)
		if tr != nil {
			sc = &jobScope{}
			net = osn.NewNetworkOn(tr.wrap(fx.be, sc))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit || limit == 0 && i >= digestJobs && !time.Now().Before(deadline) {
					return
				}
				lc.job(net, fx, p, shape, tr, sc, i)
				if hp.due() {
					hp.pause(nil)
				}
			}
		}()
	}
	wg.Wait()
	use1 := readUsage()

	ph := newPhase()
	ph.use0, ph.use1 = use0, use1
	ph.elapsed = use1.at.Sub(use0.at)
	var sum libCaller
	for _, lc := range callers {
		ph.merge(lc.ph)
		sum.fwd += lc.fwd
		sum.back += lc.back
		sum.lookups += lc.lookups
		sum.sharedQ += lc.sharedQ
		sum.sharedN += lc.sharedN
		sum.attempts += lc.attempts
		sum.self += lc.self
	}
	smp := float64(ph.samples)
	ph.layers["core.sampler.acceptance_rate"] = ratio(smp, sum.attempts)
	ph.layers["core.sampler.fwd_steps_per_sample"] = ratio(float64(sum.fwd), smp)
	ph.layers["core.sampler.back_steps_per_sample"] = ratio(float64(sum.back), smp)
	ph.layers["osn.client.lookups_per_sample"] = ratio(float64(sum.lookups), smp)
	ph.layers["osn.shared.unique_charges"] = float64(ph.queries)
	if sum.sharedN > 0 {
		ph.layers["osn.shared.hit_ratio"] = 1 - float64(sum.sharedQ)/float64(sum.sharedN)
	}
	if tr != nil {
		ph.layers["core.sampler.self_ms_per_sample"] = ratio(ms(sum.self), smp)
	}
	return ph
}

// job runs and checks job i of the job list.
func (lc *libCaller) job(net *osn.Network, fx *fixture, p params, shape libShape, tr *tracer, sc *jobScope, i int) {
	ph := lc.ph
	seed := jobSeed(p.seed, streamJobs, i)
	n := net.NumNodes()
	ph.attempted++
	if tr != nil {
		tr.beginJob(sc, int64(i))
	}
	t0 := time.Now()
	rng := fastrand.New(seed)
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	s, err := core.NewSampler(c, libConfig(fx.crawl), rng)
	var first time.Time
	next, bad := 0, false
	var res walk.Result
	if err == nil {
		s.OnSample = func(ev core.SampleEvent) {
			if next == 0 {
				first = time.Now()
			}
			if ev.Index != next || ev.Node < 0 || ev.Node >= n {
				bad = true
			}
			next++
		}
		res, err = s.SampleNParallel(shape.count, shape.workers)
	}
	end := time.Now()
	if tr != nil {
		lc.self += tr.endJob(sc)
	}
	switch {
	case err != nil:
		ph.fail("job %d: %v", i, err)
		return
	case bad || res.Len() != shape.count || next != shape.count:
		ph.mismatch("job %d: %d rows, want %d contiguous rows with nodes in [0, %d)", i, res.Len(), shape.count, n)
		return
	}
	var hasher rowHasher
	ph.samples += int64(shape.count)
	ph.jobMS = append(ph.jobMS, ms(end.Sub(t0)))
	ph.firstMS = append(ph.firstMS, ms(first.Sub(t0)))
	ph.queries += c.TotalQueries()
	for _, st := range res.Steps {
		ph.steps += int64(st)
	}
	ph.keepHash(i, hasher.job(seed, res.Nodes, res.Steps))
	lc.fwd += s.ForwardSteps()
	lc.back += s.BackwardSteps()
	lc.attempts += float64(shape.count) / s.AcceptanceRate()
	if shared := c.Shared(); shared != nil {
		st := shared.Stats()
		lc.lookups += st.Calls
		lc.sharedQ += st.Queries
		lc.sharedN += st.Calls
	} else {
		lc.lookups += c.Calls()
	}
}
