package walknotwait_test

import (
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

func TestPublicAPIHarvest(t *testing.T) {
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
