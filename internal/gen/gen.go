// Package gen provides deterministic generators for every graph model the
// paper evaluates on — Barabási–Albert scale-free networks, cycles,
// hypercubes, barbells, balanced binary trees — plus auxiliary models
// (complete, path, star, Erdős–Rényi, random regular) used by tests and
// extension experiments.
//
// All random generators take an explicit RNG so experiments are reproducible
// bit-for-bit under a fixed seed. The preferential-attachment generators
// accept any fastrand.RNG — pass the classic *rand.Rand for the frozen seed
// fixtures, or a *fastrand.Rand to generate million-node graphs in seconds
// (the hot loops are map-free either way: flat repeated-endpoint urns and
// small slice-membership scans).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/fastrand"
	"repro/internal/graph"
)

// Cycle returns the cycle graph C_n (diameter floor(n/2)). It panics if
// n < 3.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: Cycle(%d): need n >= 3", n))
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Path returns the path graph P_n. It panics if n < 1.
func Path(n int) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: Path(%d): need n >= 1", n))
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Complete returns the complete graph K_n. It panics if n < 1.
func Complete(n int) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: Complete(%d): need n >= 1", n))
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// Star returns the star graph on n nodes: node 0 is the hub.
func Star(n int) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: Star(%d): need n >= 1", n))
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// Hypercube returns the k-dimensional hypercube Q_k: 2^k nodes, k·2^(k-1)
// edges, diameter k. Nodes i and j are adjacent iff their binary
// representations differ in exactly one bit. It panics if k < 1 or k > 30.
func Hypercube(k int) *graph.Graph {
	if k < 1 || k > 30 {
		panic(fmt.Sprintf("gen: Hypercube(%d): need 1 <= k <= 30", k))
	}
	n := 1 << k
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < k; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// Barbell returns the paper's barbell graph on n nodes (n odd, n >= 7): two
// complete graphs of size (n-1)/2 joined through a central node that has one
// edge into each half. The central node is id n-1; the halves are
// [0,(n-1)/2) and [(n-1)/2, n-1).
//
// Note: the paper states the diameter is 3; with single attachment edges the
// hop diameter is 4 (clique node -> attach -> center -> attach -> clique
// node). The behaviour the paper relies on — tiny diameter plus an extreme
// bottleneck at the center — is preserved.
func Barbell(n int) *graph.Graph {
	if n < 7 || n%2 == 0 {
		panic(fmt.Sprintf("gen: Barbell(%d): need odd n >= 7", n))
	}
	half := (n - 1) / 2
	center := n - 1
	b := graph.NewBuilder(n)
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			b.AddEdge(i, j)           // left clique
			b.AddEdge(half+i, half+j) // right clique
		}
	}
	b.AddEdge(center, 0)    // one edge into the left half
	b.AddEdge(center, half) // one edge into the right half
	return b.Build()
}

// BalancedBinaryTree returns the complete balanced binary tree of the given
// height h: 2^(h+1)-1 nodes, diameter 2h. Node 0 is the root; node v has
// children 2v+1 and 2v+2. It panics if h < 0 or h > 29.
func BalancedBinaryTree(h int) *graph.Graph {
	if h < 0 || h > 29 {
		panic(fmt.Sprintf("gen: BalancedBinaryTree(%d): need 0 <= h <= 29", h))
	}
	n := (1 << (h + 1)) - 1
	return binaryTreeN(n)
}

// BinaryTreeN returns a binary tree on exactly n nodes, filled in level
// order (the first n nodes of the infinite complete binary tree). For
// n = 2^(h+1)-1 this is the balanced tree of height h. It panics if n < 1.
func BinaryTreeN(n int) *graph.Graph {
	if n < 1 {
		panic(fmt.Sprintf("gen: BinaryTreeN(%d): need n >= 1", n))
	}
	return binaryTreeN(n)
}

func binaryTreeN(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	return b.Build()
}

// BarabasiAlbert returns a Barabási–Albert preferential-attachment scale-free
// graph: n nodes, each new node attaching m edges to existing nodes chosen
// proportionally to degree (via the repeated-endpoints urn, as in NetworkX,
// which the paper used). The first new node connects to the m seed nodes
// directly, so |E| = m·(n-m). It panics unless 1 <= m < n.
//
// The generator draws the same stream for the same RNG as it always has
// (frozen-seed fixtures stay valid); duplicate-target detection is a scan
// of the m-element target slice rather than a per-node map, so the hot loop
// allocates nothing and million-node graphs generate in seconds with a
// *fastrand.Rand.
func BarabasiAlbert(n, m int, rng fastrand.RNG) *graph.Graph {
	if m < 1 || m >= n {
		panic(fmt.Sprintf("gen: BarabasiAlbert(n=%d, m=%d): need 1 <= m < n", n, m))
	}
	b := graph.NewBuilder(n)
	// Urn of edge endpoints: choosing uniformly from it is preferential
	// attachment. Seeded with the first star so every node has degree >= 1.
	urn := make([]int32, 0, 2*m*(n-m))
	targets := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		targets = append(targets, int32(i))
	}
	for v := m; v < n; v++ {
		for _, t := range targets {
			b.AddEdge(v, int(t))
			urn = append(urn, int32(v), t)
		}
		// Pick m distinct targets for the next node.
		targets = targets[:0]
		for len(targets) < m {
			t := urn[rng.Intn(len(urn))]
			if int(t) == v+1 || containsInt32(targets, t) {
				continue
			}
			targets = append(targets, t)
		}
	}
	return b.Build()
}

// containsInt32 reports membership in a small slice — the m-element target
// sets of the preferential-attachment generators, where a linear scan beats
// any map.
func containsInt32(xs []int32, x int32) bool {
	for _, e := range xs {
		if e == x {
			return true
		}
	}
	return false
}

// HolmeKim returns a scale-free graph with tunable clustering (Holme–Kim
// model): preferential attachment as in Barabási–Albert, but after each
// preferential edge, with probability pt the next edge is a triad-formation
// step to a random neighbor of the previous target, closing a triangle.
// pt = 0 degenerates to plain BA. Used for the Yelp/Twitter surrogates whose
// real counterparts have high local clustering.
//
// Like BarabasiAlbert, the draw stream is unchanged for a given RNG; the
// per-node chosen-target map became a slice scan, so the generator performs
// no per-node allocation beyond the running adjacency itself.
func HolmeKim(n, m int, pt float64, rng fastrand.RNG) *graph.Graph {
	if m < 1 || m >= n {
		panic(fmt.Sprintf("gen: HolmeKim(n=%d, m=%d): need 1 <= m < n", n, m))
	}
	if pt < 0 || pt > 1 {
		panic(fmt.Sprintf("gen: HolmeKim pt=%v outside [0,1]", pt))
	}
	b := graph.NewBuilder(n)
	urn := make([]int32, 0, 2*m*(n-m))
	adj := make([][]int32, n) // running adjacency for triad steps
	link := func(v, t int) {
		b.AddEdge(v, t)
		urn = append(urn, int32(v), int32(t))
		adj[v] = append(adj[v], int32(t))
		adj[t] = append(adj[t], int32(v))
	}
	targets := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		targets = append(targets, int32(i))
	}
	for v := m; v < n; v++ {
		for _, t := range targets {
			link(v, int(t))
		}
		// Choose the next node's targets.
		targets = targets[:0]
		next := int32(v + 1)
		prev := int32(-1)
		for len(targets) < m {
			var t int32
			if prev >= 0 && rng.Float64() < pt {
				// Triad formation: a random neighbor of the previous
				// target. Bounded retries keep the generator deterministic
				// and fast; on failure fall back to preferential attachment.
				t = -1
				for try := 0; try < 4; try++ {
					cand := adj[prev][rng.Intn(len(adj[prev]))]
					if cand != next && !containsInt32(targets, cand) {
						t = cand
						break
					}
				}
				if t < 0 {
					prev = -1
					continue
				}
			} else {
				t = urn[rng.Intn(len(urn))]
				if t == next || containsInt32(targets, t) {
					continue
				}
			}
			targets = append(targets, t)
			prev = t
		}
	}
	return b.Build()
}

// ErdosRenyiGNP returns a G(n,p) random graph: each of the n(n-1)/2 possible
// edges present independently with probability p.
func ErdosRenyiGNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	if n < 1 || p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: ErdosRenyiGNP(%d,%v): invalid arguments", n, p))
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// ErdosRenyiGNM returns a G(n,m) random graph with exactly m distinct edges
// chosen uniformly among all pairs. It panics if m exceeds n(n-1)/2.
func ErdosRenyiGNM(n, m int, rng *rand.Rand) *graph.Graph {
	maxM := n * (n - 1) / 2
	if n < 1 || m < 0 || m > maxM {
		panic(fmt.Sprintf("gen: ErdosRenyiGNM(%d,%d): need 0 <= m <= %d", n, m, maxM))
	}
	b := graph.NewBuilder(n)
	type pair struct{ u, v int }
	seen := make(map[pair]bool, m)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		p := pair{u, v}
		if seen[p] {
			continue
		}
		seen[p] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RandomRegular returns a random d-regular simple graph on n nodes via the
// configuration (pairing) model with restarts on collisions. n·d must be
// even and d < n. Expected restarts are O(e^(d²)) — intended for small d.
func RandomRegular(n, d int, rng *rand.Rand) *graph.Graph {
	if d < 1 || d >= n || (n*d)%2 != 0 {
		panic(fmt.Sprintf("gen: RandomRegular(%d,%d): need 1 <= d < n and n·d even", n, d))
	}
	stubs := make([]int32, n*d)
	for attempt := 0; ; attempt++ {
		if attempt > 10000 {
			panic("gen: RandomRegular: too many restarts; d too large for pairing model")
		}
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		type pair struct{ u, v int32 }
		seen := make(map[pair]bool, n*d/2)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			p := pair{u, v}
			if seen[p] {
				ok = false
				break
			}
			seen[p] = true
		}
		if !ok {
			continue
		}
		b := graph.NewBuilder(n)
		for i := 0; i < len(stubs); i += 2 {
			b.AddEdge(int(stubs[i]), int(stubs[i+1]))
		}
		return b.Build()
	}
}

// Model identifies one of the paper's five theoretical graph families used in
// the IDEAL-WALK case studies (Figures 2 and 3).
type Model int

const (
	ModelBarbell Model = iota
	ModelCycle
	ModelHypercube
	ModelTree
	ModelBarabasi
)

var modelNames = [...]string{"Barbell", "Cycle", "Hypercube", "Tree", "Barabasi"}

// String returns the model name as printed in the paper's figure legends.
func (m Model) String() string {
	if m < 0 || int(m) >= len(modelNames) {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return modelNames[m]
}

// AllModels lists the five case-study families in the paper's legend order.
func AllModels() []Model {
	return []Model{ModelBarbell, ModelCycle, ModelHypercube, ModelTree, ModelBarabasi}
}

// Instantiate builds the model at (approximately) the requested node count,
// mirroring the paper's case-study setup: Barbell rounds down to the nearest
// odd size >= 7, Hypercube rounds to the nearest power of two (the paper uses
// 32 when others use 31), Tree fills level order exactly, Cycle needs n >= 3,
// and Barabási–Albert uses m = 3 attachments (the paper's setting).
// It returns the graph and the node count actually used.
func (m Model) Instantiate(n int, rng *rand.Rand) (*graph.Graph, int) {
	switch m {
	case ModelBarbell:
		if n < 7 {
			n = 7
		}
		if n%2 == 0 {
			n--
		}
		return Barbell(n), n
	case ModelCycle:
		if n < 3 {
			n = 3
		}
		return Cycle(n), n
	case ModelHypercube:
		k := 1
		for (1<<(k+1))-(1<<k)/2 <= n && k < 20 { // nearest power of two
			if 1<<(k+1) > n && (1<<(k+1))-n >= n-(1<<k) {
				break
			}
			k++
		}
		return Hypercube(k), 1 << k
	case ModelTree:
		if n < 1 {
			n = 1
		}
		return BinaryTreeN(n), n
	case ModelBarabasi:
		m0 := 3
		if n <= m0 {
			n = m0 + 1
		}
		return BarabasiAlbert(n, m0, rng), n
	default:
		panic(fmt.Sprintf("gen: unknown model %d", int(m)))
	}
}
