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
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// batchFixture builds two identically-configured estimators (private
// clients over one shared network, identical WS-BW histories,
// shared crawl table) plus a candidate set drawn from walk endpoints.
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
	hs, hv := NewHistory(), NewHistory()
	for i := 0; i < 40; i++ {
		path := walk.Path(walker, d, 0, 11, walkRNG)
		hs.RecordWalk(path)
		hv.RecordWalk(path)
		cands = append(cands, path[len(path)-1])
	}
	scalar.Hist, vec.Hist = hs, hv
	return scalar, vec, cands
}

// TestEstimateAdaptiveBatchMatchesScalar is the kernel equivalence
// contract: for every candidate, the vectorized kernel must produce the
// same estimate, consume the same number of backward steps, and charge the
// same queries as the scalar EstimateAdaptive loop seeded identically —
// lockstep interleaving between private RNG streams is unobservable.
func TestEstimateAdaptiveBatchMatchesScalar(t *testing.T) {
	const tSteps, baseReps, budget = 9, 3, 5
	for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
		for _, useCrawl := range []bool{false, true} {
			scalar, vec, nodes := batchFixture(t, d, useCrawl)

			wantPHat := make([]float64, len(nodes))
			wantSteps := make([]int64, len(nodes))
			for i, v := range nodes {
				pre := scalar.StepsTaken
				pHat, err := EstimateAdaptive(scalar, v, tSteps, baseReps, budget, fastrand.New(int64(1000+i)))
				if err != nil {
					t.Fatal(err)
				}
				wantPHat[i] = pHat
				wantSteps[i] = scalar.StepsTaken - pre
			}

			cands := make([]*BatchCand, len(nodes))
			for i, v := range nodes {
				cands[i] = &BatchCand{V: v, RNG: fastrand.New(int64(1000 + i))}
			}
			EstimateAdaptiveBatch(vec, cands, tSteps, baseReps, budget)

			for i, cd := range cands {
				if cd.Err != nil {
					t.Fatalf("%s crawl=%v cand %d: %v", d.Name(), useCrawl, i, cd.Err)
				}
				if cd.PHat != wantPHat[i] {
					t.Fatalf("%s crawl=%v cand %d: batch %v != scalar %v", d.Name(), useCrawl, i, cd.PHat, wantPHat[i])
				}
				if cd.Steps != wantSteps[i] {
					t.Fatalf("%s crawl=%v cand %d: batch steps %d != scalar %d", d.Name(), useCrawl, i, cd.Steps, wantSteps[i])
				}
			}
			if scalar.StepsTaken != vec.StepsTaken {
				t.Fatalf("%s crawl=%v: StepsTaken %d != %d", d.Name(), useCrawl, scalar.StepsTaken, vec.StepsTaken)
			}
			if sq, vq := scalar.Client.TotalQueries(), vec.Client.TotalQueries(); sq != vq {
				t.Fatalf("%s crawl=%v: queries %d != %d", d.Name(), useCrawl, sq, vq)
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
		want, err := EstimateAdaptive(scalar, v, 0, 2, 0, fastrand.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		cd := &BatchCand{V: v, RNG: fastrand.New(int64(i))}
		EstimateAdaptiveBatch(vec, []*BatchCand{cd}, 0, 2, 0)
		if cd.Err != nil || cd.PHat != want {
			t.Fatalf("t=0 cand %d: batch (%v, %v) != scalar %v", i, cd.PHat, cd.Err, want)
		}
	}

	cd := &BatchCand{V: nodes[0], RNG: fastrand.New(1)}
	EstimateAdaptiveBatch(vec, []*BatchCand{cd}, -1, 2, 0)
	if cd.Err == nil {
		t.Fatal("t<0 must error the candidate")
	}
	EstimateAdaptiveBatch(vec, nil, 5, 2, 0) // must not panic
}

// TestParallelSamplerVectorizedMatchesScalar runs the full parallel
// WALK-ESTIMATE sampler with the vectorized kernel and with the scalar
// reference path at the same (seed, workers), over the in-memory, disk-CSR,
// and simulated-remote backends, and requires identical sample sequences,
// per-sample step counts, query-cost trajectories, and total backward
// steps.
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

	const n, workers = 20, 4
	for _, be := range backends {
		run := func(scalarEst bool) (walk.Result, int64, int64) {
			t.Helper()
			backend, done := be.mk()
			defer done()
			net := osn.NewNetworkOn(backend)
			rng := rand.New(rand.NewSource(7))
			c := osn.NewClient(net, osn.CostUniqueNodes, rng)
			s, err := NewSampler(c, Config{
				Design:         walk.SRW{},
				Start:          0,
				WalkLength:     9,
				UseCrawl:       true,
				CrawlHops:      2,
				UseWeighted:    true,
				VarianceBudget: 4,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			// Pin the kernel explicitly: the scalar run is the reference,
			// the other run forces the batch kernel even on the local
			// backends where auto-selection would pick scalar.
			s.scalarKernel = &scalarEst
			res, err := s.SampleNParallel(n, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res, s.est.StepsTaken, c.TotalQueries()
		}
		want, wantSteps, wantQ := run(true)
		got, gotSteps, gotQ := run(false)
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: sample counts differ: %d vs %d", be.name, len(got.Nodes), len(want.Nodes))
		}
		for i := range got.Nodes {
			if got.Nodes[i] != want.Nodes[i] || got.Steps[i] != want.Steps[i] || got.CostAfter[i] != want.CostAfter[i] {
				t.Fatalf("%s sample %d: vectorized (%d,%d,%d) != scalar (%d,%d,%d)", be.name, i,
					got.Nodes[i], got.Steps[i], got.CostAfter[i],
					want.Nodes[i], want.Steps[i], want.CostAfter[i])
			}
		}
		if gotSteps != wantSteps {
			t.Fatalf("%s: StepsTaken %d != %d", be.name, gotSteps, wantSteps)
		}
		if gotQ != wantQ {
			t.Fatalf("%s: queries %d != %d", be.name, gotQ, wantQ)
		}
	}
}
