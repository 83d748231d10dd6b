package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// subgraph returns the induced subgraph of g on the given nodes together
// with the mapping newID -> oldID. Nodes must be valid ids; duplicates are
// collapsed.
func subgraph(g *Graph, nodes []int) (*Graph, []int) {
	keep := make([]int, 0, len(nodes))
	oldToNew := make(map[int]int, len(nodes))
	for _, v := range nodes {
		if _, dup := oldToNew[v]; dup {
			continue
		}
		oldToNew[v] = len(keep)
		keep = append(keep, v)
	}
	b := NewBuilder(len(keep))
	for newU, oldU := range keep {
		for _, w := range g.Neighbors(oldU) {
			if newW, ok := oldToNew[int(w)]; ok && newU < newW {
				b.AddEdge(newU, newW)
			}
		}
	}
	return b.Build(), keep
}

// triangle plus a pendant: 0-1, 1-2, 0-2, 2-3
func testGraph(t *testing.T) *Graph {
	t.Helper()
	return FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func TestBuilderBasics(t *testing.T) {
	g := testGraph(t)
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestBuilderDedupeAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse orientation
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop, dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dedupe/self-loop)", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("Degree(2) = %d, want 0", g.Degree(2))
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(2)
	assertPanics(t, "out of range", func() { b.AddEdge(0, 2) })
	b.Build()
	assertPanics(t, "double build", func() { b.Build() })
	assertPanics(t, "negative n", func() { NewBuilder(-1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestHasEdge(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {3, 2, true},
		{0, 3, false}, {1, 3, false}, {0, 0, false},
		{-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero Graph not empty: %v", g.String())
	}
	if g.MaxDegree() != 0 || g.MinDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("zero Graph degree stats should be 0")
	}
	b := NewBuilder(0)
	g2 := b.Build()
	if g2.NumNodes() != 0 {
		t.Fatal("built empty graph should have 0 nodes")
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := testGraph(t)
	sum := 0
	for v := 0; v < g.NumNodes(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("handshake lemma violated: sum(deg)=%d, 2m=%d", sum, 2*g.NumEdges())
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Errorf("MinDegree = %d, want 1", g.MinDegree())
	}
	if got, want := g.AvgDegree(), 2.0; got != want {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
}

func TestSubgraph(t *testing.T) {
	g := testGraph(t)
	sub, ids := subgraph(g, []int{2, 0, 1, 0}) // duplicate 0 collapsed
	if sub.NumNodes() != 3 {
		t.Fatalf("Subgraph nodes = %d, want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 3 { // the triangle
		t.Fatalf("Subgraph edges = %d, want 3", sub.NumEdges())
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 0 || ids[2] != 1 {
		t.Fatalf("Subgraph mapping = %v", ids)
	}
}

// randomGraph builds a pseudo-random graph from a seed for property tests.
func randomGraph(seed int64, maxN int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	b := NewBuilder(n)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestPropertyCSRInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 60)
		// Handshake lemma.
		sum := 0
		for v := 0; v < g.NumNodes(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			nbr := g.Neighbors(v)
			for i, w := range nbr {
				// sorted, no dupes
				if i > 0 && nbr[i-1] >= w {
					return false
				}
				// no self loops
				if int(w) == v {
					return false
				}
				// symmetry
				if !g.HasEdge(int(w), v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubgraphPreservesEdges(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 40)
		rng := rand.New(rand.NewSource(seed + 1))
		var nodes []int
		for v := 0; v < g.NumNodes(); v++ {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, v)
			}
		}
		sub, ids := subgraph(g, nodes)
		for u := 0; u < sub.NumNodes(); u++ {
			for _, w := range sub.Neighbors(u) {
				if !g.HasEdge(ids[u], ids[w]) {
					return false
				}
			}
		}
		// Every original edge between kept nodes must survive.
		inv := make(map[int]int)
		for newID, oldID := range ids {
			inv[oldID] = newID
		}
		for _, oldU := range ids {
			for _, w := range g.Neighbors(oldU) {
				if newW, ok := inv[int(w)]; ok {
					if !sub.HasEdge(inv[oldU], newW) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
