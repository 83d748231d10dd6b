package walknotwait_test

// One benchmark per paper table/figure (regenerating its data series at a
// reduced but shape-preserving budget), plus micro-benchmarks for the
// sampling primitives and an ablation bench for the WALK-ESTIMATE variants.
// The weexp CLI runs the same experiments at full budgets.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	wnw "repro"
	"repro/internal/core"
	"repro/internal/walk"
)

// benchOptions are the reduced budgets used by the figure benches.
func benchOptions(seed int64) wnw.ExperimentOptions {
	return wnw.ExperimentOptions{
		Seed:        seed,
		Scale:       0.05,
		Trials:      2,
		Samples:     25,
		BiasSamples: 5000,
	}
}

func renderAll(b *testing.B, rs []wnw.ExperimentResult, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rs {
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.Fig1(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.Fig2(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.Fig3(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.Fig5(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig6(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig7(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig8(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig9(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig10(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkFig11(b *testing.B) {
	opts := benchOptions(1)
	opts.Scale = 0.1 // sizes floor at 1000 nodes anyway
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		rs, err := wnw.Fig11(opts)
		renderAll(b, rs, err)
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := wnw.Fig12(benchOptions(int64(i)))
		renderAll(b, rs, err)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.Table1(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

// BenchmarkOneLongRun covers the Figure 4 / Section 6.1 discussion: the
// effective-sample-size study of the one-long-run scheme.
func BenchmarkOneLongRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := wnw.OneLongRunStudy(benchOptions(int64(i)))
		renderAll(b, []wnw.ExperimentResult{r}, err)
	}
}

// --- micro-benchmarks -------------------------------------------------

func benchGraphAndClient(b *testing.B, n, m int) (*wnw.Graph, *wnw.Client, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	g := wnw.NewBarabasiAlbert(n, m, rng)
	net := wnw.NewNetwork(g)
	return g, wnw.NewClient(net, wnw.CostUniqueNodes, rng), rng
}

func BenchmarkSRWStep(b *testing.B) {
	_, c, rng := benchGraphAndClient(b, 10000, 5)
	d := wnw.SimpleRandomWalk()
	u := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = d.Step(c, u, rng)
	}
}

func BenchmarkMHRWStep(b *testing.B) {
	_, c, rng := benchGraphAndClient(b, 10000, 5)
	d := wnw.MetropolisHastings()
	u := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = d.Step(c, u, rng)
	}
}

func BenchmarkBackwardEstimate(b *testing.B) {
	g, c, rng := benchGraphAndClient(b, 5000, 5)
	ct, err := core.BuildCrawlTable(c, walk.SRW{}, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	est := &core.Estimator{Client: c, Design: walk.SRW{}, Start: 0, Crawl: ct}
	t := 2*g.EstimateDiameter(2, rng) + 1
	v := walk.Path(c, walk.SRW{}, 0, t, rng)[t]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateOnce(v, t, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWESample(b *testing.B) {
	g, c, rng := benchGraphAndClient(b, 5000, 5)
	s, err := wnw.NewWalkEstimate(c, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      0,
		WalkLength: 2*g.EstimateDiameter(2, rng) + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGewekeSample(b *testing.B) {
	_, c, rng := benchGraphAndClient(b, 5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wnw.ManyShortRuns(c, wnw.SimpleRandomWalk(), 0, 1,
			wnw.Geweke{Threshold: 0.1}, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrawlTable(b *testing.B) {
	_, c, rng := benchGraphAndClient(b, 5000, 5)
	_ = rng
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCrawlTable(c, walk.SRW{}, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWEVariants compares WALK-ESTIMATE with and without its
// initial-crawling heuristic: time per accepted sample.
func BenchmarkAblationWEVariants(b *testing.B) {
	variants := []struct {
		name  string
		crawl bool
	}{
		{"None", false},
		{"Crawl", true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			g, c, rng := benchGraphAndClient(b, 5000, 5)
			s, err := wnw.NewWalkEstimate(c, wnw.WEConfig{
				Design:     wnw.SimpleRandomWalk(),
				Start:      0,
				WalkLength: 2*g.EstimateDiameter(2, rng) + 1,
				UseCrawl:   v.crawl,
				CrawlHops:  2,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelWE compares the sequential WALK-ESTIMATE sampler against
// the concurrent engine (SampleNParallel) on a 50k-node Barabási–Albert
// graph, the scale of the paper's synthetic experiments. Each op draws a
// fixed block of samples; queries/sample reports the fleet-wide unique-node
// cost per accepted sample. No parallel speed-up is asserted here; the
// measured parallel-vs-sequential throughput is cmd/webench's lib-mem-par2
// and lib-mem-seq workloads (cmd/webench/README.md).
func BenchmarkParallelWE(b *testing.B) {
	const (
		nodes        = 50000
		edgesPerNode = 5
		samplesPerOp = 24
	)
	g := wnw.NewBarabasiAlbert(nodes, edgesPerNode, rand.New(rand.NewSource(7)))
	net := wnw.NewNetwork(g)
	cfg := wnw.WEConfig{
		Design:         wnw.SimpleRandomWalk(),
		Start:          0,
		WalkLength:     13,
		UseCrawl:       true,
		CrawlHops:      2,
		BackwardReps:   4,
		VarianceBudget: 8,
	}
	newSampler := func(b *testing.B, seed int64) (*wnw.Client, *wnw.WESampler) {
		b.Helper()
		rng := rand.New(rand.NewSource(seed))
		c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
		s, err := wnw.NewWalkEstimate(c, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		return c, s
	}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			c, s := newSampler(b, 11)
			// queries/sample is taken from the first op only (a fresh
			// sampler's first block), so the metric is independent of b.N —
			// averaging over all ops would decay with b.N as the shared
			// cache warms and make sub-benchmarks incomparable.
			var firstOpQueries int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if workers == 1 {
					_, err = s.SampleN(samplesPerOp)
				} else {
					_, err = s.SampleNParallel(samplesPerOp, workers)
				}
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					firstOpQueries = c.TotalQueries()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(firstOpQueries)/samplesPerOp, "queries/sample")
			b.ReportMetric(float64(workers), "workers")
		}
	}
	b.Run("Sequential", run(1))
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("Parallel-%d", w), run(w))
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("BarabasiAlbert-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wnw.NewBarabasiAlbert(10000, 5, rng)
		}
	})
	b.Run("HolmeKim-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wnw.NewHolmeKim(10000, 5, 0.5, rng)
		}
	})
}
