package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/walk"
)

func TestHarvestSamplerUniformTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := gen.BarabasiAlbert(20, 2, rng)
	c := newClient(g, 61)
	cfg := Config{
		Design:     walk.MHRW{},
		Start:      0,
		WalkLength: 2*g.Diameter() + 1,
		UseCrawl:   true,
		CrawlHops:  1,
	}
	s, err := NewHarvestSampler(c, cfg, g.Diameter()+1, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, g.NumNodes())
	total := 0
	for total < 5000 {
		got, err := s.Harvest()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			counts[v]++
			total++
		}
	}
	want := float64(total) / float64(g.NumNodes())
	for v, got := range counts {
		if float64(got) < 0.3*want || float64(got) > 2.5*want {
			t.Errorf("node %d: %d samples, uniform expectation %.0f", v, got, want)
		}
	}
	if s.AcceptanceRate() <= 0 || s.AcceptanceRate() > 1 {
		t.Fatalf("acceptance = %v", s.AcceptanceRate())
	}
}

func TestHarvestSamplerDegreeTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := gen.BarabasiAlbert(20, 2, rng)
	c := newClient(g, 63)
	cfg := Config{
		Design:     walk.SRW{},
		Start:      0,
		WalkLength: 2*g.Diameter() + 1,
		UseCrawl:   true,
		CrawlHops:  1,
	}
	s, err := NewHarvestSampler(c, cfg, 0, rng) // default minStep
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := linalg.SRWStationary(g)
	counts := make([]int, g.NumNodes())
	total := 0
	for total < 8000 {
		got, err := s.Harvest()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			counts[v]++
			total++
		}
	}
	for v, got := range counts {
		want := pi[v] * float64(total)
		if want < 60 {
			continue
		}
		if float64(got) < 0.5*want || float64(got) > 1.9*want {
			t.Errorf("node %d: %d samples, stationary expectation %.0f", v, got, want)
		}
	}
}

func TestHarvestAmortizesForwardCost(t *testing.T) {
	// At equal sample counts, harvesting needs fewer forward walks (and
	// hence fewer walk steps) than plain WE.
	rng := rand.New(rand.NewSource(64))
	g := gen.BarabasiAlbert(300, 4, rng)
	const samples = 60

	cH := newClient(g, 65)
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 2*g.Diameter() + 1,
		UseCrawl: true, CrawlHops: 2}
	h, err := NewHarvestSampler(cH, cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := h.SampleN(samples)
	if err != nil {
		t.Fatal(err)
	}

	cP, rng2 := newClient(g, 66), rand.New(rand.NewSource(67))
	p, err := NewSampler(cP, cfg, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SampleN(samples); err != nil {
		t.Fatal(err)
	}
	if hres.Len() != samples {
		t.Fatalf("harvest samples = %d", hres.Len())
	}
	if h.TotalSteps() >= p.TotalSteps() {
		t.Errorf("harvest steps %d should undercut plain WE %d", h.TotalSteps(), p.TotalSteps())
	}
}

func TestHarvestSamplerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	g := gen.Cycle(9)
	c := newClient(g, 69)
	if _, err := NewHarvestSampler(c, Config{}, 0, rng); err == nil {
		t.Fatal("empty config should fail")
	}
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 5}
	if _, err := NewHarvestSampler(c, cfg, 9, rng); err == nil {
		t.Fatal("minStep beyond walk length should fail")
	}
	s, err := NewHarvestSampler(c, cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.minStep != 3 {
		t.Fatalf("default minStep = %d, want ceil(5/2)=3", s.minStep)
	}
	if _, err := s.SampleN(-1); err == nil {
		t.Fatal("negative sample count should fail")
	}
}

func TestHarvestSampleNCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	g := gen.BarabasiAlbert(50, 3, rng)
	c := newClient(g, 71)
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 2*g.Diameter() + 1, UseCrawl: true, CrawlHops: 2}
	s, err := NewHarvestSampler(c, cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleN(30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Len(); i++ {
		if res.CostAfter[i] < res.CostAfter[i-1] {
			t.Fatal("cost checkpoints must be non-decreasing")
		}
	}
	// Per-step bootstraps: different steps must not share a bootstrap.
	if len(s.boots) < 2 {
		t.Fatalf("expected per-step bootstraps, got %d", len(s.boots))
	}
	sum := 0.0
	for _, b := range s.boots {
		sum += b.Scale()
	}
	if math.IsNaN(sum) {
		t.Fatal("bootstrap scales NaN")
	}
}
