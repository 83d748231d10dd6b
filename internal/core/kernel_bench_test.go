package core

// Micro-benchmarks and allocation-regression guards for the dense hot-path
// kernels: backStep (the uniform backward pick taken on every backward
// step), the full EstimateOnce backward walk and the lockstep kernels, plus
// BenchmarkSampleNJob, the end-to-end job of webench's lib-mem workloads.
// The Test*Allocs functions below hold the zero-allocation contract; the
// benchmarks time the same kernels.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

// kernelFixture builds a warm estimator over a 20k-node BA graph, mirroring
// the state of a mid-run sampler: the client has fetched the lists of 200
// forward walks. It returns the last walk's endpoint.
func kernelFixture(tb testing.TB, t int) (*Estimator, int) {
	tb.Helper()
	g := gen.BarabasiAlbert(20000, 5, rand.New(rand.NewSource(2)))
	net := osn.NewNetwork(g)
	rng := rand.New(rand.NewSource(3))
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	var v int
	for i := 0; i < 200; i++ {
		path := walk.Path(c, walk.SRW{}, 0, t, rng)
		v = path[len(path)-1]
	}
	return &Estimator{Client: c, Design: walk.SRW{}, Start: 0}, v
}

// BenchmarkBackStep measures one uniform backward step at a warm node. It
// must report 0 allocs/op.
func BenchmarkBackStep(b *testing.B) {
	e, v := kernelFixture(b, 13)
	rng := fastrand.New(7)
	nbr := e.Client.Neighbors(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.backStep(v, nbr, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateOnce measures a full backward walk (no crawl shortcut):
// t uniform steps, each one backStep + one warm Neighbors + the
// degree-cached transition probability.
func BenchmarkEstimateOnce(b *testing.B) {
	const t = 13
	e, v := kernelFixture(b, t)
	rng := fastrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimateOnce(v, t, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// batchKernelFixture extends kernelFixture with a warmed 16-wide candidate
// vector for the vectorized kernel: candidates all start at the fixture's
// endpoint with private RNG streams, and a fixed number of warm-up rounds
// fill the client cache and the kernel's scratch vectors.
func batchKernelFixture(tb testing.TB, t, width int) (*Estimator, []*BatchCand) {
	tb.Helper()
	e, v := kernelFixture(tb, t)
	cands := make([]*BatchCand, width)
	for i := range cands {
		cands[i] = &BatchCand{V: v, Seed: int64(100 + i)}
	}
	for i := 0; i < 200; i++ {
		EstimateAdaptiveBatch(e, cands, t, 3, 4)
	}
	return e, cands
}

// BenchmarkEstimateBatch measures the vectorized backward kernel on the
// warm kernel fixture: a 16-wide candidate vector advanced in lockstep,
// adaptive rule identical to the scalar EstimateAdaptive. ns/op covers the
// whole 16-candidate batch. CI requires 0 allocs/op.
func BenchmarkEstimateBatch(b *testing.B) {
	const t, width = 13, 16
	e, cands := batchKernelFixture(b, t, width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateAdaptiveBatch(e, cands, t, 3, 4)
	}
}

// TestEstimateBatchWarmAllocs extends the zero-allocation contract to the
// lockstep kernels: once scratch vectors and caches are warm, a whole
// batched estimate — every top-up wave included — and a lockstep forward
// batch must not allocate.
func TestEstimateBatchWarmAllocs(t *testing.T) {
	const steps, width, budget = 13, 16, 24 // top-up waves of 8, 8 and 8
	e, cands := batchKernelFixture(t, steps, width)
	if avg := testing.AllocsPerRun(100, func() {
		EstimateAdaptiveBatch(e, cands, steps, 3, budget)
		for _, cd := range cands {
			if cd.Err != nil {
				t.Fatal(cd.Err)
			}
		}
	}); avg != 0 {
		t.Errorf("warm EstimateAdaptiveBatch allocates %v/op, want 0", avg)
	}
	toppedUp, waves := 0, 0
	for _, cd := range cands {
		if cd.Steps > 3*steps {
			toppedUp++
		}
		if cd.Steps > (3+firstWave)*steps {
			waves++
		}
	}
	if toppedUp == 0 || waves == 0 {
		t.Errorf("%d candidates topped up, %d ran a second wave; want both > 0", toppedUp, waves)
	}

	// The forward kernel: the same eight walks each run, so the cache is
	// warm after the first.
	s, err := NewSampler(e.Client, Config{Design: walk.SRW{}, WalkLength: steps}, fastrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	scalar := false
	s.scalarKernel = &scalar
	walks := make([]pcand, 8)
	for i := range walks {
		s.draw(&walks[i])
	}
	s.walkBatch(walks, s.lockstep())
	if avg := testing.AllocsPerRun(100, func() { s.walkBatch(walks, s.lockstep()) }); avg != 0 {
		t.Errorf("warm lockstep forward batch allocates %v/op, want 0", avg)
	}
}

// TestBackStepAllocs is the allocation-regression guard for the backward
// step: it must not allocate.
func TestBackStepAllocs(t *testing.T) {
	e, v := kernelFixture(t, 13)
	rng := fastrand.New(7)
	nbr := e.Client.Neighbors(v)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := e.backStep(v, nbr, rng); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("backStep allocates %v/op, want 0", avg)
	}
}

// TestEstimateOnceWarmAllocs pins the whole backward walk at zero
// allocations once caches are warm — the per-core throughput contract of
// the dense kernel rebuild.
func TestEstimateOnceWarmAllocs(t *testing.T) {
	const steps = 13
	e, v := kernelFixture(t, steps)
	rng := fastrand.New(7)
	if _, err := e.EstimateOnce(v, steps, rng); err != nil {
		t.Fatal(err)
	}
	// Backward walks roam; warm the client cache with a fixed number of
	// estimates so the measured window reaches almost no unseen node.
	// Queries are free here: private client, no cost assertions.
	for i := 0; i < 2000; i++ {
		if _, err := e.EstimateOnce(v, steps, rng); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.EstimateOnce(v, steps, rng); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm EstimateOnce allocates %v/op, want 0", avg)
	}
}

// TestEdgeProbFastMatchesProb cross-checks the degree-cached transition
// fast path against the membership-scan Design.Prob on real neighbor pairs,
// bit for bit.
func TestEdgeProbFastMatchesProb(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, rand.New(rand.NewSource(9)))
	net := osn.NewNetwork(g)
	c := osn.NewClient(net, osn.CostUniqueNodes, rand.New(rand.NewSource(10)))
	if !c.SymmetricView() {
		t.Fatal("unrestricted client must report a symmetric view")
	}
	for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
		kind := walk.EdgeProbKindOf(d)
		if kind == walk.EdgeProbNone {
			t.Fatalf("%s must have a degree-only fast path", d.Name())
		}
		for u := 0; u < 100; u++ {
			for _, w := range c.Neighbors(u) {
				du, dw := c.Degree(u), c.Degree(int(w))
				want := d.Prob(c, int(w), u) // p(w→u)
				if got := kind.Prob(dw, du); got != want {
					t.Fatalf("%s: fast p(%d→%d) = %v, Prob = %v", d.Name(), w, u, got, want)
				}
			}
		}
	}
}

// BenchmarkSampleNJob is webench's lib-mem job loop in one command: over
// BA(50k,5) with graph seed 7 and an injected 2-hop SRW crawl table from
// node 0, job i is a fresh client and sampler seeded fastrand.Mix(1, 1, i)
// drawing 24 samples at t = 13, 4 backward reps and a variance budget of 8,
// through SampleNParallel at width 1 (lib-mem-seq) or 2 (lib-mem-par2). It
// reports µs, queries and walk steps per sample; one op is one job.
func BenchmarkSampleNJob(b *testing.B) {
	const count = 24
	g := gen.BarabasiAlbert(50000, 5, fastrand.New(7))
	net := osn.NewNetwork(g)
	ct, err := BuildCrawlTable(osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(7)), walk.SRW{}, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Design: walk.SRW{}, Start: 0, WalkLength: 13, UseCrawl: true, CrawlHops: 2, Crawl: ct,
		BackwardReps: 4, VarianceBudget: 8}
	for _, width := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par2", 2}} {
		workers := width.workers
		b.Run(width.name, func(b *testing.B) {
			var queries, steps int64
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				rng := fastrand.New(fastrand.Mix(1, 1, int64(i)))
				c := osn.NewClient(net, osn.CostUniqueNodes, rng)
				s, err := NewSampler(c, cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.SampleNParallel(count, workers)
				if err != nil {
					b.Fatal(err)
				}
				queries += c.TotalQueries()
				for _, st := range res.Steps {
					steps += int64(st)
				}
			}
			samples := float64(b.N * count)
			b.ReportMetric(float64(time.Since(t0).Microseconds())/samples, "µs/sample")
			b.ReportMetric(float64(queries)/samples, "queries/sample")
			b.ReportMetric(float64(steps)/samples, "steps/sample")
		})
	}
}
