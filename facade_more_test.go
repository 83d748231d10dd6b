package walknotwait_test

import (
	"math"
	"math/rand"
	"testing"

	wnw "repro"
)

func TestPublicAPIGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		name  string
		g     *wnw.Graph
		nodes int
	}{
		{"cycle", wnw.NewCycle(9), 9},
		{"path", wnw.NewPath(9), 9},
		{"complete", wnw.NewComplete(6), 6},
		{"star", wnw.NewStar(7), 7},
		{"hypercube", wnw.NewHypercube(4), 16},
		{"barbell", wnw.NewBarbell(11), 11},
		{"tree", wnw.NewBalancedBinaryTree(3), 15},
		{"gnp", wnw.NewErdosRenyiGNP(30, 0.3, rng), 30},
		{"gnm", wnw.NewErdosRenyiGNM(30, 50, rng), 30},
		{"regular", wnw.NewRandomRegular(20, 4, rng), 20},
		{"holmekim", wnw.NewHolmeKim(50, 3, 0.5, rng), 50},
	}
	for _, c := range cases {
		if c.g.NumNodes() != c.nodes {
			t.Errorf("%s: nodes = %d, want %d", c.name, c.g.NumNodes(), c.nodes)
		}
	}
}

func TestPublicAPINBRW(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := wnw.NewBarabasiAlbert(100, 3, rng)
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	w := wnw.NewNBWalker(0)
	if w.Node() != 0 {
		t.Fatal("walker should start at 0")
	}
	prev := 0
	for i := 0; i < 50; i++ {
		next := w.Step(c, rng)
		if !g.HasEdge(prev, next) {
			t.Fatalf("NBRW non-edge hop %d-%d", prev, next)
		}
		prev = next
	}
	res, err := wnw.NBManyShortRuns(c, 0, 5, wnw.Geweke{}, 200, rng)
	if err != nil || res.Len() != 5 {
		t.Fatalf("NBManyShortRuns = %v, %v", res.Len(), err)
	}
}

func TestPublicAPIHarvestAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := wnw.NewBarabasiAlbert(300, 4, rng)
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	h, err := wnw.NewHarvestSampler(c, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      0,
		WalkLength: 2*g.Diameter() + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.SampleN(20)
	if err != nil || res.Len() != 20 {
		t.Fatalf("harvest = %v, %v", res.Len(), err)
	}

	par, err := wnw.ParallelShortRuns(net, wnw.SimpleRandomWalk(), []int{0, 10}, 4, wnw.Geweke{}, 300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Nodes) != 12 {
		t.Fatalf("parallel samples = %d", len(par.Nodes))
	}
	if par.TotalQueries <= 0 {
		t.Fatal("parallel queries uncharged")
	}
}

func TestPublicAPIGelmanRubin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	chains := make([][]float64, 3)
	for i := range chains {
		chains[i] = make([]float64, 100)
		for j := range chains[i] {
			chains[i][j] = rng.NormFloat64()
		}
	}
	r, err := wnw.GelmanRubin(chains)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 || r > 1.2 {
		t.Fatalf("R̂ = %v", r)
	}
	if !(wnw.GelmanRubinMonitor{}).Converged(chains) {
		t.Fatal("iid chains should converge")
	}
}

func TestPublicAPISizeEstimation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := wnw.NewBarabasiAlbert(500, 4, rng)
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	s, err := wnw.NewWalkEstimate(c, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      0,
		WalkLength: 2*g.Diameter() + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleN(700)
	if err != nil {
		t.Fatal(err)
	}
	degrees := make([]float64, res.Len())
	for i, v := range res.Nodes {
		degrees[i] = float64(g.Degree(v))
	}
	nHat, err := wnw.EstimateNumNodes(res.Nodes, degrees)
	if err != nil {
		t.Fatal(err)
	}
	if nHat < 100 || nHat > 2500 {
		t.Fatalf("n̂ = %v, truth 500", nHat)
	}
	if _, err := wnw.EstimateNumEdges(res.Nodes, degrees); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMoreDatasets(t *testing.T) {
	y, err := wnw.YelpDataset(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if y.Truth[wnw.AttrStars] <= 0 {
		t.Fatal("stars truth missing")
	}
	tw, err := wnw.TwitterDataset(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Truth[wnw.AttrInDegree] <= tw.Truth[wnw.AttrOutDegree] {
		t.Fatal("twitter in/out truth ordering")
	}
	ba, err := wnw.SyntheticBADataset(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ba.Graph.NumNodes() != 1500 {
		t.Fatal("BA dataset size")
	}
}

func TestPublicAPIEstimatorAndCrawl(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := wnw.NewBarabasiAlbert(60, 3, rng)
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	ct, err := wnw.BuildCrawlTable(c, wnw.SimpleRandomWalk(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Depth() != 2 {
		t.Fatalf("depth = %d", ct.Depth())
	}
	hist := wnw.NewHistory()
	hist.RecordWalk(wnw.WalkPath(c, wnw.SimpleRandomWalk(), 0, 5, rng))
	est := &wnw.Estimator{Client: c, Design: wnw.SimpleRandomWalk(), Start: 0, Crawl: ct, Hist: hist}
	mean, variance, err := est.Estimate(5, 4, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0 || variance < 0 || math.IsNaN(mean) {
		t.Fatalf("estimate = %v ± %v", mean, variance)
	}
}

func TestPublicAPIDesignByName(t *testing.T) {
	d, err := wnw.DesignByName("MHRW")
	if err != nil || d.Name() != "MHRW" {
		t.Fatalf("DesignByName: %v, %v", d, err)
	}
	if _, err := wnw.DesignByName("zzz"); err == nil {
		t.Fatal("bad name should error")
	}
}

func TestPublicAPIExperimentWrappers(t *testing.T) {
	o := wnw.ExperimentOptions{Seed: 5, Scale: 0.02, Trials: 2, Samples: 8, BiasSamples: 1200}
	if _, err := wnw.Fig5(o); err != nil {
		t.Fatal(err)
	}
	if _, err := wnw.GewekeSensitivity(o); err != nil {
		t.Fatal(err)
	}
	if _, err := wnw.HarvestStudy(o); err != nil {
		t.Fatal(err)
	}
	if _, err := wnw.OneLongRunStudy(o); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIConcurrentEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := wnw.NewBarabasiAlbert(800, 3, rng)
	net := wnw.NewNetwork(g)

	// Explicitly shared clients through the facade.
	sc := wnw.NewSharedCache()
	a := wnw.NewClientShared(net, wnw.CostUniqueNodes, rand.New(rand.NewSource(41)), sc)
	b := wnw.NewClientShared(net, wnw.CostUniqueNodes, rand.New(rand.NewSource(42)), sc)
	a.Neighbors(0)
	b.Neighbors(0)
	if sc.Queries() != 1 {
		t.Fatalf("shared cache charged %d for one unique node", sc.Queries())
	}

	// Parallel WALK-ESTIMATE through the facade.
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rand.New(rand.NewSource(43)))
	s, err := wnw.NewWalkEstimate(c, wnw.WEConfig{
		Design:      wnw.SimpleRandomWalk(),
		Start:       0,
		WalkLength:  9,
		UseCrawl:    true,
		UseWeighted: true,
	}, rand.New(rand.NewSource(44)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleNParallel(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 12 {
		t.Fatalf("got %d samples, want 12", res.Len())
	}
	for _, v := range res.Nodes {
		if v < 0 || v >= g.NumNodes() {
			t.Fatalf("sample %d out of range", v)
		}
	}
}
