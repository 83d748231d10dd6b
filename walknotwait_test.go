package walknotwait_test

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	wnw "repro"
)

func TestPublicAPISamplingPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := wnw.NewBarabasiAlbert(300, 4, rng)
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
	res, err := s.SampleN(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 40 {
		t.Fatalf("samples = %d", res.Len())
	}
	est, err := wnw.EstimateMean(c, wnw.SimpleRandomWalk(), wnw.AttrDegree, res.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := wnw.RelativeError(est, g.AvgDegree()); relErr > 1.0 {
		t.Fatalf("AVG degree estimate %v vs truth %v (relerr %v)", est, g.AvgDegree(), relErr)
	}
	if c.Queries() <= 0 {
		t.Fatal("queries should be charged")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := wnw.NewHolmeKim(200, 3, 0.5, rng)
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	res, err := wnw.ManyShortRuns(c, wnw.MetropolisHastings(), 0, 10, wnw.Geweke{}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("samples = %d", res.Len())
	}
	long, err := wnw.OneLongRun(c, wnw.SimpleRandomWalk(), 0, 50, 20, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, long.Len())
	for i, v := range long.Nodes {
		vals[i] = float64(g.Degree(v))
	}
	if _, err := wnw.EffectiveSampleSize(vals, 10); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := wnw.NewCycle(12)
	m := wnw.NewSRWMatrix(g)
	pi, err := wnw.SRWStationary(g)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := wnw.SpectralGap(wnw.Lazify(m, 0.5), pi, 10000, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * (1 - math.Cos(2*math.Pi/12))
	if math.Abs(gap-want) > 1e-6 {
		t.Fatalf("gap = %v, want %v", gap, want)
	}
	// A cycle is regular: SRW's stationary distribution is uniform.
	for v, p := range wnw.UniformStationary(12) {
		if math.Abs(pi[v]-p) > 1e-12 {
			t.Fatalf("pi[%d] = %v, want %v", v, pi[v], p)
		}
	}
	th := wnw.Theorem1{Gamma: 1, Delta: 0.01, DMax: 10, Lambda: 0.3}
	tOpt, err := th.TOpt()
	if err != nil || tOpt <= 0 {
		t.Fatalf("TOpt = %v, %v", tOpt, err)
	}
}

func TestPublicAPIRestrictions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := wnw.NewStar(50)
	net := wnw.NewNetwork(g, wnw.WithRestriction(wnw.RandomK{K: 10}))
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	if got := len(c.Neighbors(0)); got != 10 {
		t.Fatalf("restricted neighbors = %d", got)
	}
	if est, err := wnw.EstimateDegreeMarkRecapture(c, 0, 100); err != nil || est < 20 {
		t.Fatalf("mark-recapture = %v, %v", est, err)
	}
}

func TestPublicAPIDatasetsAndExperiments(t *testing.T) {
	ds, err := wnw.GooglePlusDataset(0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.WalkLength() != 15 {
		t.Fatalf("walk length = %d", ds.WalkLength())
	}
	if g := wnw.SmallScaleFreeDataset(1).Net.Graph(); g == nil || g.NumNodes() == 0 {
		t.Fatal("small scale-free dataset has no ground-truth graph")
	}
	r, err := wnw.Fig1(wnw.ExperimentOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("render produced nothing")
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := wnw.NewCycle(4)
	var buf bytes.Buffer
	if err := wnw.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got < g.NumEdges() {
		t.Fatalf("edge list has %d lines for %d edges", got, g.NumEdges())
	}
	dir := t.TempDir()
	txt, bin := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.csr")
	if err := wnw.SaveEdgeList(txt, g); err != nil {
		t.Fatal(err)
	}
	if err := wnw.SaveCSR(bin, g, nil); err != nil {
		t.Fatal(err)
	}
	if wnw.IsCSRFile(txt) || !wnw.IsCSRFile(bin) {
		t.Fatal("IsCSRFile misclassifies the edge list or the CSR file")
	}
	fromTxt, err := wnw.LoadEdgeList(txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, _, err := wnw.LoadCSR(bin)
	if err != nil {
		t.Fatal(err)
	}
	if fromTxt.NumEdges() != 4 || fromBin.NumEdges() != 4 {
		t.Fatalf("edges = %d (text), %d (CSR), want 4", fromTxt.NumEdges(), fromBin.NumEdges())
	}
}
