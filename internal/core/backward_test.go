package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/mathx"
	"repro/internal/walk"
)

// checkUnbiased runs `reps` independent backward estimates of p_t(u) and
// asserts the sample mean is within 5 standard errors of the exact value.
func checkUnbiased(t *testing.T, e *Estimator, exact float64, u, steps, reps int, rng *rand.Rand) {
	t.Helper()
	var m mathx.Moments
	for i := 0; i < reps; i++ {
		v, err := e.EstimateOnce(u, steps, rng)
		if err != nil {
			t.Fatal(err)
		}
		m.Add(v)
	}
	se := m.StdDev() / math.Sqrt(float64(reps))
	tol := 5*se + 1e-9
	if diff := math.Abs(m.Mean() - exact); diff > tol {
		t.Fatalf("estimate of p_%d(%d): mean %v, exact %v, |diff| %v > tol %v (se %v)",
			steps, u, m.Mean(), exact, diff, tol, se)
	}
}

func TestUnbiasedEstimateSRW(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := gen.BarabasiAlbert(15, 2, rng)
	c := newClient(g, 11)
	const start = 0
	m := linalg.NewSRW(g)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: start}
	for _, tc := range []struct{ u, t int }{{3, 3}, {7, 4}, {0, 2}, {14, 5}} {
		exact := m.DistFrom(start, tc.t)[tc.u]
		checkUnbiased(t, e, exact, tc.u, tc.t, 60000, rng)
	}
}

func TestUnbiasedEstimateMHRW(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.BarabasiAlbert(12, 2, rng)
	c := newClient(g, 13)
	const start = 1
	m := linalg.NewMHRW(g)
	e := &Estimator{Client: c, Design: walk.MHRW{}, Start: start}
	for _, tc := range []struct{ u, t int }{{4, 3}, {1, 2}, {9, 4}} {
		exact := m.DistFrom(start, tc.t)[tc.u]
		checkUnbiased(t, e, exact, tc.u, tc.t, 60000, rng)
	}
}

func TestUnbiasedEstimateWithCrawl(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := gen.BarabasiAlbert(15, 2, rng)
	c := newClient(g, 15)
	const start = 0
	ct, err := BuildCrawlTable(c, walk.SRW{}, start, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := linalg.NewSRW(g)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: start, Crawl: ct}
	for _, tc := range []struct{ u, t int }{{5, 4}, {10, 5}, {3, 3}} {
		exact := m.DistFrom(start, tc.t)[tc.u]
		checkUnbiased(t, e, exact, tc.u, tc.t, 40000, rng)
	}
	// Within the crawl the estimate is exact and deterministic.
	exact := m.DistFrom(start, 2)
	for v := 0; v < g.NumNodes(); v++ {
		got, err := e.EstimateOnce(v, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact[v]) > 1e-12 {
			t.Fatalf("crawled p_2(%d) = %v, exact %v", v, got, exact[v])
		}
	}
}

func TestUnbiasedEstimateWithWeightedSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := gen.BarabasiAlbert(15, 2, rng)
	c := newClient(g, 17)
	const start, steps = 0, 4
	// Record real forward walks so the history is representative.
	hist := NewHistory()
	for i := 0; i < 50; i++ {
		hist.RecordWalk(walk.Path(c, walk.SRW{}, start, steps, rng))
	}
	m := linalg.NewSRW(g)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: start, Hist: hist}
	for _, u := range []int{2, 6, 11} {
		exact := m.DistFrom(start, steps)[u]
		checkUnbiased(t, e, exact, u, steps, 60000, rng)
	}
}

func TestWeightedSamplingReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := gen.BarabasiAlbert(40, 3, rng)
	c := newClient(g, 19)
	const start, steps, reps = 0, 5, 8000

	// Candidate: a node actually reached by forward walks.
	path := walk.Path(c, walk.SRW{}, start, steps, rng)
	u := path[len(path)-1]

	hist := NewHistory()
	for i := 0; i < 200; i++ {
		hist.RecordWalk(walk.Path(c, walk.SRW{}, start, steps, rng))
	}

	variance := func(e *Estimator) float64 {
		var m mathx.Moments
		for i := 0; i < reps; i++ {
			v, err := e.EstimateOnce(u, steps, rng)
			if err != nil {
				t.Fatal(err)
			}
			m.Add(v)
		}
		return m.Variance()
	}
	plain := variance(&Estimator{Client: c, Design: walk.SRW{}, Start: start})
	weighted := variance(&Estimator{Client: c, Design: walk.SRW{}, Start: start, Hist: hist})
	if weighted >= plain {
		t.Fatalf("weighted sampling variance %v should beat plain %v", weighted, plain)
	}
}

func TestHistory(t *testing.T) {
	h := NewHistory()
	if h.Walks() != 0 || h.Hits(0, 0) != 0 {
		t.Fatal("fresh history should be empty")
	}
	h.RecordWalk([]int{3, 1, 4})
	h.RecordWalk([]int{3, 1, 5})
	if h.Walks() != 2 {
		t.Fatalf("walks = %d", h.Walks())
	}
	if h.Hits(3, 0) != 2 || h.Hits(1, 1) != 2 || h.Hits(4, 2) != 1 || h.Hits(5, 2) != 1 {
		t.Fatal("hit counts wrong")
	}
	if h.Hits(4, 1) != 0 {
		t.Fatal("phantom hit")
	}
}

func TestEstimateMeanVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := gen.Cycle(9)
	c := newClient(g, 21)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: 0}
	mean, variance, err := e.Estimate(2, 2, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	// On C9, p_2(2) from 0 = 1/4.
	if math.Abs(mean-0.25) > 0.08 {
		t.Fatalf("mean = %v, want ~0.25", mean)
	}
	if variance < 0 {
		t.Fatal("variance must be non-negative")
	}
	if _, _, err := e.Estimate(2, 2, 0, rng); err == nil {
		t.Fatal("zero reps should error")
	}
	if _, err := e.EstimateOnce(2, -1, rng); err == nil {
		t.Fatal("negative steps should error")
	}
}

func TestEstimateZeroForUnreachable(t *testing.T) {
	// On a cycle, parity forbids odd-step returns: p_1(0) from 0 is 0.
	rng := rand.New(rand.NewSource(22))
	g := gen.Cycle(8)
	c := newClient(g, 23)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: 0}
	for i := 0; i < 200; i++ {
		v, err := e.EstimateOnce(0, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("p_1(0) estimate = %v, want exactly 0", v)
		}
	}
}

func TestEstimateT0(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := gen.Cycle(5)
	c := newClient(g, 25)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: 3}
	if v, err := e.EstimateOnce(3, 0, rng); err != nil || v != 1 {
		t.Fatalf("p_0(start) = %v, %v", v, err)
	}
	if v, err := e.EstimateOnce(1, 0, rng); err != nil || v != 0 {
		t.Fatalf("p_0(other) = %v, %v", v, err)
	}
}

func TestBackwardStepsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g := gen.Cycle(12)
	c := newClient(g, 27)
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: 0}
	if _, err := e.EstimateOnce(4, 6, rng); err != nil {
		t.Fatal(err)
	}
	if e.StepsTaken != 6 {
		t.Fatalf("StepsTaken = %d, want 6 (no crawl: full depth)", e.StepsTaken)
	}
}
