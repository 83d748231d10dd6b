package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/osn"
	"repro/internal/walk"
)

func newClient(g *graph.Graph, seed int64) *osn.Client {
	net := osn.NewNetwork(g)
	return osn.NewClient(net, osn.CostUniqueNodes, rand.New(rand.NewSource(seed)))
}

func TestCrawlTableMatchesOracleSRW(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.BarabasiAlbert(40, 3, rng)
	c := newClient(g, 2)
	const start, h = 0, 3
	ct, err := BuildCrawlTable(c, walk.SRW{}, start, h)
	if err != nil {
		t.Fatal(err)
	}
	m := linalg.NewSRW(g)
	for tau := 0; tau <= h; tau++ {
		exact := m.DistFrom(start, tau)
		for v := 0; v < g.NumNodes(); v++ {
			got, ok := ct.Lookup(v, tau)
			if !ok {
				t.Fatalf("Lookup(%d,%d) not covered", v, tau)
			}
			if math.Abs(got-exact[v]) > 1e-12 {
				t.Fatalf("p_%d(%d) = %v, oracle %v", tau, v, got, exact[v])
			}
		}
	}
	// Beyond the table: not covered.
	if _, ok := ct.Lookup(0, h+1); ok {
		t.Fatal("Lookup beyond depth must report !ok")
	}
	if _, ok := ct.Lookup(0, -1); ok {
		t.Fatal("negative step must report !ok")
	}
}

func TestCrawlTableMatchesOracleMHRW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbert(30, 2, rng)
	c := newClient(g, 4)
	const start, h = 5, 2
	ct, err := BuildCrawlTable(c, walk.MHRW{}, start, h)
	if err != nil {
		t.Fatal(err)
	}
	m := linalg.NewMHRW(g)
	for tau := 0; tau <= h; tau++ {
		exact := m.DistFrom(start, tau)
		for v := 0; v < g.NumNodes(); v++ {
			got, _ := ct.Lookup(v, tau)
			if math.Abs(got-exact[v]) > 1e-12 {
				t.Fatalf("MHRW p_%d(%d) = %v, oracle %v", tau, v, got, exact[v])
			}
		}
	}
}

func TestCrawlTableDepthZero(t *testing.T) {
	g := gen.Cycle(5)
	c := newClient(g, 5)
	ct, err := BuildCrawlTable(c, walk.SRW{}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := ct.Lookup(2, 0); !ok || p != 1 {
		t.Fatalf("p_0(start) = %v, %v", p, ok)
	}
	if p, ok := ct.Lookup(3, 0); !ok || p != 0 {
		t.Fatalf("p_0(other) = %v, %v", p, ok)
	}
	if ct.Size() != 1 {
		t.Fatalf("Size = %d", ct.Size())
	}
}

func TestCrawlTableNegativeDepth(t *testing.T) {
	g := gen.Cycle(5)
	c := newClient(g, 6)
	if _, err := BuildCrawlTable(c, walk.SRW{}, 0, -1); err == nil {
		t.Fatal("negative depth should error")
	}
}

func TestCrawlChargesQueries(t *testing.T) {
	g := gen.Star(11) // hub 0 plus 10 leaves
	c := newClient(g, 7)
	if _, err := BuildCrawlTable(c, walk.SRW{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Crawling 1 hop around the hub queries the hub and all 10 leaves.
	if got := c.Queries(); got != 11 {
		t.Fatalf("crawl query cost = %d, want 11", got)
	}
}
