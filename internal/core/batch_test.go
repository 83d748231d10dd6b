package core

// Property tests for the vectorized backward-estimation kernel (batch.go):
// per candidate, EstimateAdaptiveBatch must be bit-identical to the scalar
// EstimateAdaptive chain — same estimates, same step counts, same query
// charges — and the parallel sampler must draw the identical sample
// sequence whichever kernel its workers run, on the in-memory backend and
// on the disk-CSR and simulated-remote backends alike.

import (
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// batchFixture builds two identically-configured estimators (private
// clients over one shared network, shared crawl table) plus a candidate
// set drawn from walk endpoints.
func batchFixture(t *testing.T, d walk.Design, useCrawl bool) (scalar, vec *Estimator, cands []int) {
	t.Helper()
	g := gen.BarabasiAlbert(3000, 4, rand.New(rand.NewSource(51)))
	net := osn.NewNetwork(g)
	mk := func() *Estimator {
		return &Estimator{
			Client: osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(5)),
			Design: d, Start: 0,
		}
	}
	scalar, vec = mk(), mk()
	if useCrawl {
		crawl, err := BuildCrawlTable(osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(5)), d, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		scalar.Crawl, vec.Crawl = crawl, crawl
	}
	walker := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(6))
	walkRNG := rand.New(rand.NewSource(52))
	for i := 0; i < 40; i++ {
		path := walk.Path(walker, d, 0, 11, walkRNG)
		cands = append(cands, path[len(path)-1])
	}
	return scalar, vec, cands
}

// TestEstimateAdaptiveBatchMatchesScalar is the kernel equivalence
// contract: for every candidate, the vectorized kernel must produce the
// same estimate, consume the same number of backward steps, and charge the
// same queries as the scalar EstimateAdaptive loop seeded identically —
// lockstep interleaving between private RNG streams is unobservable.
func TestEstimateAdaptiveBatchMatchesScalar(t *testing.T) {
	const tSteps, baseReps = 9, 3
	// A budget of 5 tops up in one wave, 40 in waves of 8, 8, 16 and 8.
	for _, budget := range []int{5, 40} {
		for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
			for _, useCrawl := range []bool{false, true} {
				matchScalar(t, d, useCrawl, tSteps, baseReps, budget)
			}
		}
	}
}

func matchScalar(t *testing.T, d walk.Design, useCrawl bool, tSteps, baseReps, budget int) {
	t.Helper()
	scalar, vec, nodes := batchFixture(t, d, useCrawl)

	wantPHat := make([]float64, len(nodes))
	wantSteps := make([]int64, len(nodes))
	for i, v := range nodes {
		pre := scalar.StepsTaken
		pHat, err := EstimateAdaptive(scalar, v, tSteps, baseReps, budget, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		wantPHat[i] = pHat
		wantSteps[i] = scalar.StepsTaken - pre
	}

	cands := make([]*BatchCand, len(nodes))
	for i, v := range nodes {
		cands[i] = &BatchCand{V: v, Seed: int64(1000 + i)}
	}
	EstimateAdaptiveBatch(vec, cands, tSteps, baseReps, budget)

	waves := budget <= firstWave // a second top-up wave ran
	for i, cd := range cands {
		if cd.Err != nil {
			t.Fatalf("budget %d %s crawl=%v cand %d: %v", budget, d.Name(), useCrawl, i, cd.Err)
		}
		waves = waves || cd.Steps > int64((baseReps+firstWave)*tSteps)
		if cd.PHat != wantPHat[i] {
			t.Fatalf("budget %d %s crawl=%v cand %d: batch %v != scalar %v", budget, d.Name(), useCrawl, i, cd.PHat, wantPHat[i])
		}
		if cd.Steps != wantSteps[i] {
			t.Fatalf("budget %d %s crawl=%v cand %d: batch steps %d != scalar %d", budget, d.Name(), useCrawl, i, cd.Steps, wantSteps[i])
		}
	}
	if scalar.StepsTaken != vec.StepsTaken {
		t.Fatalf("budget %d %s crawl=%v: StepsTaken %d != %d", budget, d.Name(), useCrawl, scalar.StepsTaken, vec.StepsTaken)
	}
	if sq, vq := scalar.Client.TotalQueries(), vec.Client.TotalQueries(); sq != vq {
		t.Fatalf("budget %d %s crawl=%v: queries %d != %d", budget, d.Name(), useCrawl, sq, vq)
	}
	if !waves {
		t.Errorf("budget %d %s crawl=%v: no candidate ran a second top-up wave", budget, d.Name(), useCrawl)
	}
}

// TestTopUpWaves pins the wave schedule: the waves of a budget sum to it,
// number ⌈log2(B/firstWave)⌉+1, and a candidate whose estimate settles
// after u top-up walks pays at most max(firstWave, 2u) of them.
func TestTopUpWaves(t *testing.T) {
	for b := 1; b <= MaxWalksPerCandidate; b++ {
		var ends []int
		for done := 0; done < b; done += waveSize(done, b) {
			ends = append(ends, done+waveSize(done, b))
		}
		want := 1
		for firstWave<<(want-1) < b {
			want++
		}
		if ends[len(ends)-1] != b || len(ends) != want {
			t.Fatalf("budget %d: waves end at %v, want %d waves summing to it", b, ends, want)
		}
		w := 0
		for u := 1; u <= b; u++ {
			if u > ends[w] {
				w++
			}
			if ends[w] > max(firstWave, 2*u) {
				t.Fatalf("budget %d: settling after %d top-up walks pays %d", b, u, ends[w])
			}
		}
	}
}

// TestEstimateAdaptiveBatchEdgeCases pins the degenerate inputs: t=0 walks
// finish before their first step, t<0 errors every candidate, and an empty
// candidate slice is a no-op.
func TestEstimateAdaptiveBatchEdgeCases(t *testing.T) {
	scalar, vec, nodes := batchFixture(t, walk.SRW{}, false)
	nodes = nodes[:4]

	for i, v := range nodes {
		want, err := EstimateAdaptive(scalar, v, 0, 2, 0, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		cd := &BatchCand{V: v, Seed: int64(i)}
		EstimateAdaptiveBatch(vec, []*BatchCand{cd}, 0, 2, 0)
		if cd.Err != nil || cd.PHat != want {
			t.Fatalf("t=0 cand %d: batch (%v, %v) != scalar %v", i, cd.PHat, cd.Err, want)
		}
	}

	cd := &BatchCand{V: nodes[0], Seed: 1}
	EstimateAdaptiveBatch(vec, []*BatchCand{cd}, -1, 2, 0)
	if cd.Err == nil {
		t.Fatal("t<0 must error the candidate")
	}
	EstimateAdaptiveBatch(vec, nil, 5, 2, 0) // must not panic
}

// TestParallelSamplerVectorizedMatchesScalar runs the full WALK-ESTIMATE
// sampler — SampleN and SampleNParallel — with the lockstep kernels and
// with the scalar ones (forward and backward) at the same (seed, workers),
// over the in-memory, disk-CSR, and simulated-remote backends, and
// requires identical sample sequences, per-sample step counts, query-cost
// trajectories, and total backward steps.
func TestParallelSamplerVectorizedMatchesScalar(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	csr := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.SaveCSR(csr, g, nil); err != nil {
		t.Fatal(err)
	}

	backends := []struct {
		name string
		mk   func() (osn.Backend, func())
	}{
		{"mem", func() (osn.Backend, func()) { return osn.NewMemBackend(g), func() {} }},
		{"disk-csr", func() (osn.Backend, func()) {
			be, m, err := osn.OpenDiskBackend(csr)
			if err != nil {
				t.Fatal(err)
			}
			return be, func() { m.Close() }
		}},
		{"sim", func() (osn.Backend, func()) {
			return osn.NewRemoteSim(osn.NewMemBackend(g), 30*time.Microsecond, 10*time.Microsecond, 64), func() {}
		}},
	}

	const n = 20
	for _, be := range backends {
		for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
			for _, workers := range []int{1, 4} {
				run := func(scalarEst bool) (walk.Result, int64, int64) {
					t.Helper()
					backend, done := be.mk()
					defer done()
					net := osn.NewNetworkOn(backend)
					rng := rand.New(rand.NewSource(7))
					c := osn.NewClient(net, osn.CostUniqueNodes, rng)
					s, err := NewSampler(c, Config{
						Design:         d,
						Start:          0,
						WalkLength:     9,
						UseCrawl:       true,
						CrawlHops:      2,
						VarianceBudget: 4,
					}, rng)
					if err != nil {
						t.Fatal(err)
					}
					// Pin the kernels explicitly: the scalar run is the reference,
					// the other run forces the lockstep kernels even on the local
					// backends where auto-selection would pick scalar.
					s.scalarKernel = &scalarEst
					res, err := s.SampleNParallel(n, workers)
					if err != nil {
						t.Fatal(err)
					}
					return res, s.BackwardSteps(), c.TotalQueries()
				}
				want, wantSteps, wantQ := run(true)
				got, gotSteps, gotQ := run(false)
				if len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("%s/%s/%d: sample counts differ: %d vs %d", be.name, d.Name(), workers, len(got.Nodes), len(want.Nodes))
				}
				for i := range got.Nodes {
					if got.Nodes[i] != want.Nodes[i] || got.Steps[i] != want.Steps[i] || got.CostAfter[i] != want.CostAfter[i] {
						t.Fatalf("%s/%s/%d sample %d: lockstep (%d,%d,%d) != scalar (%d,%d,%d)", be.name, d.Name(), workers, i,
							got.Nodes[i], got.Steps[i], got.CostAfter[i],
							want.Nodes[i], want.Steps[i], want.CostAfter[i])
					}
				}
				if gotSteps != wantSteps {
					t.Fatalf("%s/%s/%d: StepsTaken %d != %d", be.name, d.Name(), workers, gotSteps, wantSteps)
				}
				if gotQ != wantQ {
					t.Fatalf("%s/%s/%d: queries %d != %d", be.name, d.Name(), workers, gotQ, wantQ)
				}
			}
		}
	}
}

// callCounter is an in-memory backend that reports concurrent batch
// answers, as a remote API does, and counts the calls that reach it: one
// per NeighborsBatch, one per single-node fetch.
type callCounter struct {
	osn.MemBackend
	calls atomic.Int64
}

func (b *callCounter) Neighbors(v int) []int32 {
	b.calls.Add(1)
	return b.MemBackend.Neighbors(v)
}

func (b *callCounter) NeighborsBatch(vs []int32, out [][]int32) {
	b.calls.Add(1)
	b.MemBackend.NeighborsBatch(vs, out)
}

func (b *callCounter) ConcurrentBatch() bool { return true }

// TestLockstepRoundTrips pins the round trips of the lockstep kernels on a
// concurrent backend at t = 13, 4 base walks and a top-up wave of 8, each
// run on a cold cache. Under SRW one candidate's estimate is two lockstep
// waves of t steps plus the walk starts' fetch, so it makes at most
// 2·(t+1) backend calls, not one per walker step; an 8-walk forward batch
// resolves each step's frontier with one Prefetch, so it makes at most t.
// MHRW may add one batch per step: its proposals (forward) and the
// neighbor degrees its stay probability reads (backward).
func TestLockstepRoundTrips(t *testing.T) {
	const steps, reps, budget = 13, 4, 8
	g := gen.BarabasiAlbert(5000, 5, rand.New(rand.NewSource(8)))
	for _, tc := range []struct {
		d               walk.Design
		fwdMax, backMax int64
	}{
		{walk.SRW{}, steps, 2 * (steps + 1)},
		{walk.MHRW{}, 2 * steps, 2 * (2*steps + 1)},
	} {
		be := &callCounter{MemBackend: osn.NewMemBackend(g)}
		net := osn.NewNetworkOn(be)
		client := func() *osn.Client { return osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(1)) }

		s, err := NewSampler(client(), Config{Design: tc.d, WalkLength: steps}, fastrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if !s.lockstep() {
			t.Fatal("a concurrent-batch backend must select the lockstep kernels")
		}
		b := make([]pcand, 8)
		for i := range b {
			s.draw(&b[i])
		}
		pre := be.calls.Load()
		s.walkBatch(b, s.lockstep())
		calls := be.calls.Load() - pre
		t.Logf("%s: 8-walk forward batch: %d backend calls", tc.d.Name(), calls)
		if calls > tc.fwdMax {
			t.Errorf("%s: 8-walk forward batch made %d backend calls, want <= %d", tc.d.Name(), calls, tc.fwdMax)
		}

		toppedUp := 0
		for i, cd := range b {
			e := &Estimator{Client: client(), Design: tc.d, Start: 0}
			bc := &BatchCand{V: cd.V, Seed: cd.Seed}
			pre := be.calls.Load()
			EstimateAdaptiveBatch(e, []*BatchCand{bc}, steps, reps, budget)
			calls := be.calls.Load() - pre
			if bc.Err != nil {
				t.Fatal(bc.Err)
			}
			if calls > tc.backMax {
				t.Errorf("%s candidate %d: estimate made %d backend calls, want <= %d", tc.d.Name(), i, calls, tc.backMax)
			}
			if bc.Steps > reps*steps {
				toppedUp++
			}
			t.Logf("%s candidate %d: %d backend calls, %d backward steps", tc.d.Name(), i, calls, bc.Steps)
		}
		if toppedUp == 0 {
			t.Errorf("%s: no candidate ran its top-up wave; the bound covers only the base wave", tc.d.Name())
		}
	}
}
