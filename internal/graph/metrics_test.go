package graph

import (
	"math"
	"math/rand"
	"testing"
)

func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestLocalClustering(t *testing.T) {
	// Triangle with pendant (node 3 attached to 2).
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	cases := []struct {
		v    int
		want float64
	}{
		{0, 1.0},       // both neighbors (1,2) connected
		{1, 1.0},       // both neighbors (0,2) connected
		{2, 1.0 / 3.0}, // neighbors {0,1,3}: only (0,1) connected of 3 pairs
		{3, 0},         // degree 1
	}
	for _, c := range cases {
		if got := g.LocalClustering(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LocalClustering(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestAvgClusteringComplete(t *testing.T) {
	g := completeGraph(6)
	if got := g.AvgClustering(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("complete graph AvgClustering = %v, want 1", got)
	}
	if got := cycleGraph(10).AvgClustering(); got != 0 {
		t.Errorf("cycle AvgClustering = %v, want 0", got)
	}
}

func TestAvgClusteringSampledConverges(t *testing.T) {
	g := completeGraph(8)
	rng := rand.New(rand.NewSource(1))
	if got := g.AvgClusteringSampled(100, rng); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("sampled clustering on complete graph = %v, want 1", got)
	}
}

func TestAvgShortestPath(t *testing.T) {
	// Path 0-1-2: pairs (ordered) distances: 0-1:1,0-2:2,1-0:1,1-2:1,2-0:2,2-1:1 => 8/6
	g := pathGraph(3)
	want := 8.0 / 6.0
	if got := g.AvgShortestPath(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgShortestPath = %v, want %v", got, want)
	}
	// Complete graph: every pair at distance 1.
	if got := completeGraph(5).AvgShortestPath(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("complete AvgShortestPath = %v, want 1", got)
	}
}

func TestAvgShortestPathSampled(t *testing.T) {
	g := completeGraph(6)
	rng := rand.New(rand.NewSource(2))
	if got := g.AvgShortestPathSampled(10, rng); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("sampled ASP on complete graph = %v, want 1", got)
	}
	// Degenerate inputs.
	if got := pathGraph(1).AvgShortestPathSampled(5, rng); got != 0 {
		t.Errorf("single-node ASP = %v, want 0", got)
	}
}
