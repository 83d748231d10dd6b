package graph

import (
	"math/rand"
	"testing"
)

// randomEdges returns m random (possibly duplicate, possibly self-loop)
// edge pairs over n nodes — the raw input shape Builder.Build must digest.
func randomEdges(n, m int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return edges
}

// BenchmarkBuilderBuild measures the O(V+E) counting-sort CSR construction,
// whose time should stay linear as the synthetic graphs grow toward the
// million-node scale.
func BenchmarkBuilderBuild(b *testing.B) {
	const n, m = 100000, 500000
	edges := randomEdges(n, m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n)
		for _, e := range edges {
			bld.AddEdge(e[0], e[1])
		}
		if g := bld.Build(); g.NumNodes() != n {
			b.Fatal("bad build")
		}
	}
}

// TestBuildCountingSortMatchesSpec cross-checks the counting-sort build
// against the CSR invariants on adversarial inputs: duplicates in both
// orientations, self-loops, isolated nodes, and unsorted insertion order.
func TestBuildCountingSortMatchesSpec(t *testing.T) {
	const n = 300
	edges := randomEdges(n, 2000, 7)
	b := NewBuilder(n)
	want := make(map[[2]int]bool)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
		b.AddEdge(e[1], e[0]) // duplicate in the other orientation
		if e[0] != e[1] {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			want[[2]int{u, v}] = true
		}
	}
	g := b.Build()
	if g.NumEdges() != len(want) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(want))
	}
	for v := 0; v < n; v++ {
		nbr := g.Neighbors(v)
		for i := range nbr {
			if int(nbr[i]) == v {
				t.Fatalf("self-loop survived at %d", v)
			}
			if i > 0 && nbr[i-1] >= nbr[i] {
				t.Fatalf("Neighbors(%d) not strictly sorted: %v", v, nbr)
			}
			a, c := v, int(nbr[i])
			if a > c {
				a, c = c, a
			}
			if !want[[2]int{a, c}] {
				t.Fatalf("unexpected edge {%d,%d}", v, nbr[i])
			}
		}
	}
}
