package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

func parallelTestSampler(t *testing.T, seed int64) *Sampler {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	net := osn.NewNetwork(g)
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
	return s
}

// TestSampleNParallelAccounting checks that the parallel run reports sane
// bookkeeping: positive step counts per sample, a nondecreasing fleet-wide
// cost axis, and acceptance counters consistent with the result.
func TestSampleNParallelAccounting(t *testing.T) {
	s := parallelTestSampler(t, 9)
	res, err := s.SampleNParallel(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(0); s.TotalSteps() <= got {
		t.Error("TotalSteps not accumulated")
	}
	var prev int64
	for i := range res.Nodes {
		if res.Steps[i] <= 0 {
			t.Errorf("sample %d: nonpositive step count %d", i, res.Steps[i])
		}
		if res.CostAfter[i] < prev {
			t.Errorf("sample %d: cost axis decreased %d -> %d", i, prev, res.CostAfter[i])
		}
		prev = res.CostAfter[i]
	}
	if rate := s.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Errorf("acceptance rate %v out of range", rate)
	}
	if s.c.Shared() == nil {
		t.Error("parallel run should have promoted the client to a shared cache")
	}
}

// TestSampleNParallelArgs covers the edge and error paths.
func TestSampleNParallelArgs(t *testing.T) {
	s := parallelTestSampler(t, 11)
	if _, err := s.SampleNParallel(5, 0); err == nil {
		t.Error("workers=0 must error")
	}
	if _, err := s.SampleNParallel(-1, 2); err == nil {
		t.Error("negative n must error")
	}
	if _, err := s.SampleN(-1); err == nil {
		t.Error("negative n must error on the sequential path too")
	}
	res, err := s.SampleNParallel(0, 2)
	if err != nil || res.Len() != 0 {
		t.Errorf("n=0: %v, %d samples", err, res.Len())
	}
	res, err = s.SampleNParallel(3, 1) // delegates to the sequential path
	if err != nil || res.Len() != 3 {
		t.Errorf("workers=1: %v, %d samples", err, res.Len())
	}
}
