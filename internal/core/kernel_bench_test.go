package core

// Micro-benchmarks and allocation-regression guards for the dense hot-path
// kernels: backStep (the WS-BW pick taken on every backward step, with and
// without history evidence at the predecessor step), History.Row, and the
// full EstimateOnce backward walk. The Test*Allocs functions below hold the
// zero-allocation contract; the benchmarks time the same kernels.

import (
	"math/rand"
	"testing"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

// kernelFixture builds a warm estimator with a populated WS-BW history over
// a 20k-node BA graph, mirroring the state of a mid-run sampler: walks are
// recorded with their evidence rows, as the samplers record them.
func kernelFixture(tb testing.TB, t int) (*Estimator, int) {
	tb.Helper()
	g := gen.BarabasiAlbert(20000, 5, rand.New(rand.NewSource(2)))
	net := osn.NewNetwork(g)
	rng := rand.New(rand.NewSource(3))
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	hist := NewHistory()
	var v int
	for i := 0; i < 200; i++ {
		path := walk.Path(c, walk.SRW{}, 0, t, rng)
		hist.record(path, c)
		v = path[len(path)-1]
	}
	e := &Estimator{Client: c, Design: walk.SRW{}, Start: 0, Hist: hist}
	return e, v
}

// BenchmarkBackStep measures one weighted backward step at a warm node —
// the dense row scan plus the fused tempered-mix inverse-CDF selection. It
// must report 0 allocs/op.
func BenchmarkBackStep(b *testing.B) {
	const t = 13
	e, v := kernelFixture(b, t)
	rng := fastrand.New(7)
	nbr := e.Client.Neighbors(v)
	if _, _, err := e.backStep(v, t, nbr, rng); err != nil { // grow scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.backStep(v, t, nbr, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackStepNoEvidence measures a backward step whose evidence bit
// is clear — no recorded walk visited any candidate at the predecessor
// step — so the gate skips the gather and draws the uniform pick. It must
// report 0 allocs/op.
func BenchmarkBackStepNoEvidence(b *testing.B) {
	const t = 13
	e, _ := kernelFixture(b, t)
	v := noEvidenceNode(b, e, t)
	rng := fastrand.New(7)
	nbr := e.Client.Neighbors(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.backStep(v, t, nbr, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// noEvidenceNode returns the highest-degree node among the first 2,000
// whose evidence bit at the predecessor row of step t is clear.
func noEvidenceNode(tb testing.TB, e *Estimator, t int) int {
	tb.Helper()
	row := e.Hist.Row(t - 1)
	best := -1
	for v := 0; v < 2000; v++ {
		if !row.evident(v) && (best < 0 || e.Client.Degree(v) > e.Client.Degree(best)) {
			best = v
		}
	}
	if best < 0 {
		tb.Fatal("fixture has no node without evidence")
	}
	return best
}

// BenchmarkHistoryRow measures the per-step row handoff plus one candidate
// hit probe — the unit of work the WS-BW scan performs per candidate.
func BenchmarkHistoryRow(b *testing.B) {
	e, v := kernelFixture(b, 13)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += e.Hist.Row(i % 13).Hits(v)
	}
	_ = sink
}

// BenchmarkEstimateOnce measures a full backward walk (no crawl shortcut):
// t weighted steps, each one backStep + one warm Neighbors + the
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

	// The forward kernel, without a history (recording grows its pages):
	// the same eight walks each run, so the cache is warm after the first.
	s, err := NewSampler(e.Client, Config{Design: walk.SRW{}, WalkLength: steps}, fastrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	scalar := false
	s.scalarKernel = &scalar
	walks := &batch{cands: make([]pcand, 8)}
	for i := range walks.cands {
		s.draw(&walks.cands[i])
	}
	s.walkBatch(walks, s.lockstep())
	if avg := testing.AllocsPerRun(100, func() { s.walkBatch(walks, s.lockstep()) }); avg != 0 {
		t.Errorf("warm lockstep forward batch allocates %v/op, want 0", avg)
	}
}

// TestBackStepAllocs is the allocation-regression guard for the WS-BW inner
// loop: after the scratch buffer's first growth, a backward step must not
// allocate — weighted, evidence-gated and uniform (no history) alike.
func TestBackStepAllocs(t *testing.T) {
	const steps = 13
	e, v := kernelFixture(t, steps)
	rng := fastrand.New(7)
	nbr := e.Client.Neighbors(v)
	if _, _, err := e.backStep(v, steps, nbr, rng); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := e.backStep(v, steps, nbr, rng); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("weighted backStep allocates %v/op, want 0", avg)
	}

	u := noEvidenceNode(t, e, steps) // gated: no evidence, no gather
	unbr := e.Client.Neighbors(u)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := e.backStep(u, steps, unbr, rng); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("gated backStep allocates %v/op, want 0", avg)
	}

	e.Hist = nil // UNBIASED-ESTIMATE uniform path
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := e.backStep(v, steps, nbr, rng); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("uniform backStep allocates %v/op, want 0", avg)
	}
}

// TestHistoryRowAllocs guards the Row/Hits zero-allocation contract and
// the accessor's agreement with History.Hits, including across page
// boundaries.
func TestHistoryRowAllocs(t *testing.T) {
	h := NewHistory()
	h.RecordWalk([]int{3, 1, 4})
	h.RecordWalk([]int{3, 5, 4})
	h.RecordWalk([]int{3, 5000, 4}) // second page of step 1
	if avg := testing.AllocsPerRun(1000, func() {
		row := h.Row(1)
		row.Hits(5)
		row.Hits(5000)
		row.Hits(1 << 20)
	}); avg != 0 {
		t.Errorf("History.Row/Hits allocates %v/op, want 0", avg)
	}
	probes := []int{0, 1, 3, 4, 5, 7, 4095, 4096, 5000, 8191, 1 << 20}
	for step := -1; step <= 3; step++ {
		row := h.Row(step)
		for _, node := range probes {
			if got, want := int(row.Hits(node)), h.Hits(node, step); got != want {
				t.Errorf("Row(%d).Hits(%d) = %d disagrees with Hits = %d", step, node, got, want)
			}
		}
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
