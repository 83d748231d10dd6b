package walknotwait_test

// End-to-end integration tests: the full analytics pipeline a downstream
// user would run — build a surrogate network, sample through the restricted
// interface with traditional and WALK-ESTIMATE samplers, estimate several
// aggregates, and validate the error/cost relationships the library
// promises.

import (
	"math"
	"math/rand"
	"testing"

	wnw "repro"
)

func TestIntegrationYelpPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	ds, err := wnw.YelpDataset(0.03, 17) // ~3600 users
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	const samples = 120

	// WALK-ESTIMATE over SRW.
	cWE := wnw.NewClient(ds.Net, wnw.CostUniqueNodes, rng)
	s, err := wnw.NewWalkEstimate(cWE, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      ds.StartNode,
		WalkLength: ds.WalkLength(),
		UseCrawl:   true,
		CrawlHops:  ds.CrawlHops,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleN(samples)
	if err != nil {
		t.Fatal(err)
	}

	// Every aggregate the paper reports for Yelp, from one sample set.
	for _, attr := range []string{wnw.AttrDegree, wnw.AttrStars, wnw.AttrAvgPath, wnw.AttrClustering} {
		est, err := wnw.EstimateMean(cWE, wnw.SimpleRandomWalk(), attr, res.Nodes)
		if err != nil {
			t.Fatalf("%s: %v", attr, err)
		}
		truth := ds.Truth[attr]
		relErr := wnw.RelativeError(est, truth)
		if math.IsNaN(relErr) || relErr > 1.0 {
			t.Errorf("%s: estimate %v vs truth %v (rel err %v)", attr, est, truth, relErr)
		}
	}

	// Baseline at the same sample count for the cost comparison.
	rng2 := rand.New(rand.NewSource(19))
	cSRW := wnw.NewClient(ds.Net, wnw.CostUniqueNodes, rng2)
	srwRes, err := wnw.ManyShortRuns(cSRW, wnw.SimpleRandomWalk(), ds.StartNode,
		samples, wnw.Geweke{Threshold: 0.1}, 2000, rng2)
	if err != nil {
		t.Fatal(err)
	}
	srwDeg, err := wnw.EstimateMean(cSRW, wnw.SimpleRandomWalk(), wnw.AttrDegree, srwRes.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	weDeg, err := wnw.EstimateMean(cWE, wnw.SimpleRandomWalk(), wnw.AttrDegree, res.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.Truth[wnw.AttrDegree]
	if wnw.RelativeError(weDeg, truth) > wnw.RelativeError(srwDeg, truth) {
		t.Errorf("WE degree error %v should beat SRW %v",
			wnw.RelativeError(weDeg, truth), wnw.RelativeError(srwDeg, truth))
	}
}

func TestIntegrationRestrictionInvariance(t *testing.T) {
	// The efficiency comparison survives neighbor-list truncation (§6.3.1):
	// WE still samples and still beats the baseline on error per query on
	// the *visible* graph.
	rng := rand.New(rand.NewSource(20))
	g := wnw.NewBarabasiAlbert(1500, 5, rng)
	net := wnw.NewNetwork(g, wnw.WithRestriction(wnw.TruncateL{L: 30}))

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
	res, err := s.SampleN(50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 50 {
		t.Fatalf("samples = %d", res.Len())
	}
	// Estimates target the visible graph; just require finiteness and a
	// plausible range (visible degree <= 30 by construction).
	est, err := wnw.EstimateMean(c, wnw.SimpleRandomWalk(), wnw.AttrDegree, res.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || est > 30 {
		t.Fatalf("visible AVG degree estimate %v outside (0,30]", est)
	}
}
