// Package graph provides the undirected-graph substrate used throughout the
// walknotwait library: a compact CSR (compressed sparse row) representation,
// traversal primitives, topology metrics, and an edge-list text format.
//
// The graph model follows Section 2.1 of the paper: simple undirected graphs
// G<V,E> without self-loops or parallel edges. Nodes are dense integer ids in
// [0, NumNodes()).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR form. The zero value
// is an empty graph with no nodes. Use a Builder to construct one.
//
// Adjacency lists are sorted ascending, contain no self-loops and no
// duplicates, and are symmetric: v appears in Neighbors(u) iff u appears in
// Neighbors(v).
type Graph struct {
	offsets []int32 // len NumNodes()+1; offsets[v]..offsets[v+1] index adj
	adj     []int32 // concatenated sorted neighbor lists; len 2*NumEdges()
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns d(v) = |N(v)|.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists. Runs in
// O(log d(u)) via binary search on the sorted adjacency of u.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.NumNodes() || v >= g.NumNodes() {
		return false
	}
	nbr := g.Neighbors(u)
	i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= int32(v) })
	return i < len(nbr) && nbr[i] == int32(v)
}

// MaxDegree returns the maximum node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum node degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// AvgDegree returns the average node degree 2|E|/|V|, or 0 for an empty
// graph. This is the ground-truth value for the paper's AVG-degree aggregate.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// String returns a short human-readable summary, e.g. "graph{n=31 m=84}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. Self-loops are
// dropped and duplicate edges collapsed at Build time, so callers may add the
// same edge in both orientations freely.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	built bool
}

// NewBuilder returns a Builder for a graph on n nodes (ids 0..n-1).
// It panics if n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder with negative n=%d", n))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}. It panics on out-of-range ids.
// Self-loops (u == v) are silently ignored.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// Build finalizes the graph. The builder must not be reused afterwards.
//
// Edge tuples are ordered with a two-pass counting sort (stable by v, then
// by u), so the whole build is O(V+E) — no comparison sort, no closures —
// and million-node preferential-attachment graphs construct in seconds.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder.Build called twice")
	}
	b.built = true

	// LSD counting sort of the edge indices: stable pass on the minor key v,
	// then a stable pass on the major key u, yields (u,v) lexicographic
	// order. One shared count/position buffer serves both passes.
	m := len(b.us)
	byV := make([]int32, m)
	idx := make([]int32, m)
	pos := make([]int32, b.n+1)
	for _, v := range b.vs {
		pos[v]++
	}
	for v, acc := 0, int32(0); v < b.n; v++ {
		pos[v], acc = acc, acc+pos[v]
	}
	for i := 0; i < m; i++ {
		v := b.vs[i]
		byV[pos[v]] = int32(i)
		pos[v]++
	}
	for i := range pos {
		pos[i] = 0
	}
	for _, u := range b.us {
		pos[u]++
	}
	for u, acc := 0, int32(0); u < b.n; u++ {
		pos[u], acc = acc, acc+pos[u]
	}
	for _, i := range byV {
		u := b.us[i]
		idx[pos[u]] = i
		pos[u]++
	}

	// Dedupe adjacent equal tuples and count degrees.
	deg := make([]int32, b.n)
	var prevU, prevV int32 = -1, -1
	kept := 0
	for _, i := range idx {
		u, v := b.us[i], b.vs[i]
		if u == prevU && v == prevV {
			continue // duplicate
		}
		prevU, prevV = u, v
		idx[kept] = i
		kept++
		deg[u]++
		deg[v]++
	}
	idx = idx[:kept]

	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, i := range idx {
		u, v := b.us[i], b.vs[i]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Each node's final list is the concatenation of its smaller neighbors
	// (appended while scanning edges (u,x) with u < x, in increasing u) and
	// its larger neighbors (edges (x,v), in increasing v) — i.e. two sorted
	// runs split by the node's own id, which is already globally sorted. An
	// insertion pass costs O(list) on sorted input and repairs any residue.
	g := &Graph{offsets: offsets, adj: adj}
	for v := 0; v < b.n; v++ {
		insertionSort(adj[offsets[v]:offsets[v+1]])
	}
	return g
}

// insertionSort sorts a small or nearly-sorted int32 slice in place; on
// already-sorted input it is a single comparison per element.
func insertionSort(xs []int32) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// FromEdges is a convenience constructor: it builds a graph on n nodes from
// the given undirected edge pairs.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
