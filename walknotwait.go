// Package walknotwait is a Go implementation of "Walk, Not Wait: Faster
// Sampling Over Online Social Networks" (Nazi, Zhou, Thirumuruganathan,
// Zhang, Das — VLDB 2015, arXiv:1410.7833).
//
// The library lets you sample nodes from a graph that is only reachable
// through a restrictive local-neighborhood interface (give a node id, get
// its neighbor list — the access model of real online social networks), and
// to do so far cheaper than classical random-walk samplers: instead of
// waiting out a long burn-in, WALK-ESTIMATE walks a short, fixed number of
// steps, estimates the landing probability of the candidate node with
// provably unbiased backward random walks, and corrects the sample stream to
// the target distribution with acceptance-rejection sampling.
//
// # Quick start
//
//	g := walknotwait.NewBarabasiAlbert(10000, 5, rand.New(rand.NewSource(1)))
//	net := walknotwait.NewNetwork(g)
//	client := walknotwait.NewClient(net, walknotwait.CostUniqueNodes, rng)
//	sampler, err := walknotwait.NewWalkEstimate(client, walknotwait.WEConfig{
//		Design:     walknotwait.SimpleRandomWalk(),
//		Start:      0,
//		WalkLength: 2*8 + 1, // 2·D̄+1 for diameter bound D̄
//		UseCrawl:   true,
//	}, rng)
//	nodes, err := sampler.SampleN(100)
//	avgDeg, err := walknotwait.EstimateMean(client, walknotwait.SimpleRandomWalk(),
//		walknotwait.AttrDegree, nodes.Nodes)
//
// The package is a facade over the internal implementation; see DESIGN.md
// for the architecture and EXPERIMENTS.md for the paper-reproduction
// results. Everything is stdlib-only and deterministic under caller-supplied
// *rand.Rand seeds.
package walknotwait

import (
	"io"
	"math/rand"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
)

// RNG is the random-source interface the generators and samplers consume;
// both *math/rand.Rand and the library's fast xoshiro256++ generator
// (NewFastRNG) satisfy it.
type RNG = fastrand.RNG

// NewFastRNG returns a seeded xoshiro256++ generator — the fast RNG the
// internal sampling engines run on. Use it in place of a *rand.Rand when
// generating very large graphs; note the two produce different (but equally
// reproducible) streams for the same seed.
func NewFastRNG(seed int64) RNG { return fastrand.New(seed) }

// Graph is an immutable simple undirected graph in CSR form; see the
// generator functions for construction, and LoadEdgeList and LoadCSR for
// file input.
type Graph = graph.Graph

// WriteEdgeList writes a graph as a plain-text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadEdgeList reads a graph from an edge-list file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// SaveEdgeList writes a graph to an edge-list file.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeList(path, g) }

// MappedCSR is a graph opened from a binary CSR file — memory-mapped where
// the platform allows, so million-node graphs open in O(1) and sample
// without holding their edges on the heap.
type MappedCSR = graph.MappedCSR

// SaveCSR writes a graph (plus optional per-node float64 attribute tables)
// to the named file in the binary CSR format.
func SaveCSR(path string, g *Graph, attrs map[string][]float64) error {
	return graph.SaveCSR(path, g, attrs)
}

// LoadCSR reads a binary CSR file fully into memory.
func LoadCSR(path string) (*Graph, map[string][]float64, error) { return graph.LoadCSR(path) }

// IsCSRFile reports whether the named file is a binary CSR graph (as
// opposed to a plain-text edge list).
func IsCSRFile(path string) bool { return graph.IsCSRFile(path) }

// NewBarabasiAlbert generates a Barabási–Albert scale-free graph: n nodes,
// m preferential attachments per new node. Accepts a *rand.Rand (frozen
// fixture streams) or a NewFastRNG generator (million-node graphs in
// seconds).
func NewBarabasiAlbert(n, m int, rng RNG) *Graph { return gen.BarabasiAlbert(n, m, rng) }

// NewHolmeKim generates a scale-free graph with tunable clustering: like
// Barabási–Albert but each subsequent edge is, with probability pt, a
// triad-formation step. Accepts a *rand.Rand or a NewFastRNG generator.
func NewHolmeKim(n, m int, pt float64, rng RNG) *Graph { return gen.HolmeKim(n, m, pt, rng) }

// NewCycle generates the cycle graph C_n.
func NewCycle(n int) *Graph { return gen.Cycle(n) }

// NewComplete generates the complete graph K_n.
func NewComplete(n int) *Graph { return gen.Complete(n) }

// NewStar generates the star graph on n nodes (node 0 is the hub).
func NewStar(n int) *Graph { return gen.Star(n) }

// NewHypercube generates the k-dimensional hypercube (2^k nodes).
func NewHypercube(k int) *Graph { return gen.Hypercube(k) }

// NewBarbell generates the paper's barbell graph on n (odd) nodes: two
// cliques of (n-1)/2 nodes bridged by a central node.
func NewBarbell(n int) *Graph { return gen.Barbell(n) }

// NewBalancedBinaryTree generates the complete binary tree of height h.
func NewBalancedBinaryTree(h int) *Graph { return gen.BalancedBinaryTree(h) }

// NewErdosRenyiGNP generates a G(n,p) random graph.
func NewErdosRenyiGNP(n int, p float64, rng *rand.Rand) *Graph {
	return gen.ErdosRenyiGNP(n, p, rng)
}

// NewErdosRenyiGNM generates a G(n,m) random graph with exactly m edges.
func NewErdosRenyiGNM(n, m int, rng *rand.Rand) *Graph { return gen.ErdosRenyiGNM(n, m, rng) }

// NewRandomRegular generates a random d-regular simple graph on n nodes.
func NewRandomRegular(n, d int, rng *rand.Rand) *Graph { return gen.RandomRegular(n, d, rng) }
