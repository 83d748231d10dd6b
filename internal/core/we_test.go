package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/walk"
)

func TestScaleBootstrap(t *testing.T) {
	var b ScaleBootstrap
	if b.Scale() != 0 {
		t.Fatal("empty bootstrap scale should be 0")
	}
	for _, r := range []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, -1} {
		b.Observe(r) // 0 and -1 ignored
	}
	if b.N() != 10 {
		t.Fatalf("N = %d, want 10 (non-positive dropped)", b.N())
	}
	// 10th percentile of 1..10 with index floor(0.1·9)=0 -> smallest value.
	if got := b.Scale(); got != 1 {
		t.Fatalf("Scale = %v, want 1", got)
	}
	// 21 ratios observed out of order: index floor(0.1·20)=2 of the sorted
	// stream, the third smallest.
	var b21 ScaleBootstrap
	for i := 0; i < 21; i++ {
		b21.Observe(float64((i*8)%21 + 1)) // a permutation of 1..21
	}
	if got := b21.Scale(); got != 3 {
		t.Fatalf("10th-percentile scale = %v, want 3", got)
	}
}

func TestAcceptProb(t *testing.T) {
	var b ScaleBootstrap
	for _, r := range []float64{0.5, 1.0, 2.0} {
		b.Observe(r)
	}
	scale := b.Scale() // 10th pct -> 0.5
	if scale != 0.5 {
		t.Fatalf("scale = %v", scale)
	}
	beta, err := b.AcceptProb(1.0, 1.0) // ratio 1 -> β = 0.5
	if err != nil || math.Abs(beta-0.5) > 1e-12 {
		t.Fatalf("beta = %v, %v", beta, err)
	}
	// Rare candidate (p̂ below scale·q) accepted surely.
	if beta, _ := b.AcceptProb(0.1, 1.0); beta != 1 {
		t.Fatalf("low p̂ beta = %v, want 1", beta)
	}
	// p̂ = 0: always accept.
	if beta, _ := b.AcceptProb(0, 1.0); beta != 1 {
		t.Fatal("zero p̂ must accept")
	}
	if _, err := b.AcceptProb(1, 0); err == nil {
		t.Fatal("non-positive q should error")
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.Cycle(9)
	c := newClient(g, 30)
	rng := rand.New(rand.NewSource(31))
	bad := []Config{
		{},                                  // no design
		{Design: walk.SRW{}, WalkLength: 0}, // no length
		{Design: walk.SRW{}, WalkLength: 3, Start: -1},
		{Design: walk.SRW{}, WalkLength: 3, BackwardReps: MaxWalksPerCandidate + 1},
		{Design: walk.SRW{}, WalkLength: 3, VarianceBudget: -1},
		{Design: walk.SRW{}, WalkLength: 3, VarianceBudget: 100_000_000},
	}
	for i, cfg := range bad {
		if _, err := NewSampler(c, cfg, rng); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestSampleNRecordsCost(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g := gen.BarabasiAlbert(30, 3, rng)
	c := newClient(g, 37)
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 2*g.Diameter() + 1}
	s, err := NewSampler(c, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleN(12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 12 {
		t.Fatalf("samples = %d", res.Len())
	}
	for i := 1; i < res.Len(); i++ {
		if res.CostAfter[i] < res.CostAfter[i-1] {
			t.Fatal("cost must be non-decreasing")
		}
	}
	for _, st := range res.Steps {
		if st < cfg.WalkLength {
			t.Fatalf("per-sample steps %d below one forward walk %d", st, cfg.WalkLength)
		}
	}
}

func TestSamplerFailsWhenWalkTooShort(t *testing.T) {
	// Walk length 1 on a big cycle: the candidate is always a neighbor of
	// the start, its q-ratio dominates, and far nodes are never reachable —
	// but the sampler itself cannot detect bias; it still returns samples.
	// The failure mode we must handle is MaxAttempts: force rejection by
	// an impossible acceptance regime using a graph where p_1 is exact and
	// scale bootstrap drives beta near zero. Instead, verify MaxAttempts
	// surfaces as an error with a rigged config: WalkLength high enough to
	// mix but MaxAttempts = 0 means default, so use 1 attempt with an
	// always-reject percentile via a pre-seeded bootstrap.
	rng := rand.New(rand.NewSource(38))
	g := gen.Cycle(30)
	c := newClient(g, 39)
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 3, MaxAttempts: 1}
	s, err := NewSampler(c, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Rig the bootstrap so every candidate is near-surely rejected.
	for i := 0; i < 100; i++ {
		s.boot.Observe(1e-9)
	}
	fails := 0
	for i := 0; i < 40; i++ {
		if _, err := s.Sample(); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("expected at least one MaxAttempts failure under rigged rejection")
	}
}

// TestEstimateAdaptiveTopUpMatchesExact checks the variance-driven extra
// backward walks (Algorithm 3's budget rule, as the sampler runs it per
// candidate) against the exact p_t: the top-up must draw beyond the base
// repetitions, and the topped-up estimate must match the oracle.
func TestEstimateAdaptiveTopUpMatchesExact(t *testing.T) {
	g := gen.BarabasiAlbert(20, 2, rand.New(rand.NewSource(40)))
	const start, steps, baseReps, budget = 0, 4, 4, 800
	exact := linalg.NewSRW(g).DistFrom(start, steps)
	for _, u := range []int{1, 5, 9, 13} {
		base := &Estimator{Client: newClient(g, 41), Design: walk.SRW{}, Start: start}
		if _, err := EstimateAdaptive(base, u, steps, baseReps, 0, int64(u)); err != nil {
			t.Fatal(err)
		}
		e := &Estimator{Client: newClient(g, 41), Design: walk.SRW{}, Start: start}
		got, err := EstimateAdaptive(e, u, steps, baseReps, budget, int64(u))
		if err != nil {
			t.Fatal(err)
		}
		// Same seed, so the base walks are identical: any extra step is
		// the top-up's.
		if e.StepsTaken <= base.StepsTaken {
			t.Errorf("node %d: top-up drew no extra walk (%d steps, base %d)", u, e.StepsTaken, base.StepsTaken)
		}
		if math.Abs(got-exact[u]) > 0.05+0.5*exact[u] {
			t.Errorf("EstimateAdaptive p_%d(%d) = %v, exact %v", steps, u, got, exact[u])
		}
	}
}
