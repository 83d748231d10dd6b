package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// path graph 0-1-2-3-4
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func cycleGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != int32(v) {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1) // 2, 3 isolated from 0
	b.AddEdge(2, 3)
	g := b.Build()
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("components should be unreachable: %v", dist)
	}
}

func TestDiameterModels(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", pathGraph(5), 4},
		{"cycle10", cycleGraph(10), 5},
		{"cycle11", cycleGraph(11), 5},
		{"single", pathGraph(1), 0},
		{"pair", pathGraph(2), 1},
	}
	for _, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("%s: Diameter = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestEstimateDiameterLowerBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 50)
		est := g.EstimateDiameter(4, rng)
		exact := g.Diameter()
		if est > exact {
			t.Fatalf("seed %d: estimate %d exceeds exact %d", seed, est, exact)
		}
	}
	// On a path the double sweep is exact.
	g := pathGraph(30)
	if est := g.EstimateDiameter(2, rng); est != 29 {
		t.Errorf("path estimate = %d, want 29", est)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build() // node 5 isolated
	labels, sizes := g.ConnectedComponents()
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3 (sizes %v)", len(sizes), sizes)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("5 should be its own component")
	}
	if g.IsConnected() {
		t.Error("graph should not be connected")
	}
	if !cycleGraph(4).IsConnected() {
		t.Error("cycle should be connected")
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	// For every edge (u,w): |dist[u]-dist[w]| <= 1 in a BFS tree.
	prop := func(seed int64) bool {
		g := randomGraph(seed, 50)
		dist := g.BFS(0)
		for u := 0; u < g.NumNodes(); u++ {
			for _, w := range g.Neighbors(u) {
				du, dw := dist[u], dist[w]
				if (du == Unreachable) != (dw == Unreachable) {
					return false
				}
				if du != Unreachable && (du-dw > 1 || dw-du > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
