package graph

import "math/rand"

// Unreachable is the distance value reported by BFS for nodes not reachable
// from the source.
const Unreachable = int32(-1)

// BFS computes single-source shortest-path (hop) distances from src.
// Unreachable nodes get distance Unreachable.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto runs BFS from src using caller-provided scratch storage: dist must
// have length NumNodes() and be pre-filled with Unreachable; queue may be nil
// or a reusable buffer. It returns the (reused) queue holding the visit order
// and the eccentricity of src within its component.
//
// This allocation-free form is the hot path for exact diameter computation
// and average-shortest-path sampling.
func (g *Graph) BFSInto(src int, dist []int32, queue []int32) (order []int32, ecc int32) {
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		for _, w := range g.Neighbors(int(u)) {
			if dist[w] == Unreachable {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return queue, ecc
}

// Diameter computes the exact diameter (longest shortest path) of the graph
// by running BFS from every node: O(|V|·(|V|+|E|)). Intended for the paper's
// small theoretical-model graphs. Returns 0 for graphs with < 2 nodes.
// Unreachable pairs are ignored (the diameter of the components is returned).
func (g *Graph) Diameter() int {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var diam int32
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		var ecc int32
		queue, ecc = g.BFSInto(v, dist, queue)
		if ecc > diam {
			diam = ecc
		}
	}
	return int(diam)
}

// EstimateDiameter returns a lower bound on the diameter via the double-sweep
// heuristic repeated `sweeps` times from random starts. For real-world social
// graphs this is typically exact or within 1; it is the practical estimator
// behind the paper's D̄(G) upper-bound guidance (D̄ = estimate + slack).
func (g *Graph) EstimateDiameter(sweeps int, rng *rand.Rand) int {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	if sweeps < 1 {
		sweeps = 1
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	best := int32(0)
	for s := 0; s < sweeps; s++ {
		v := rng.Intn(n)
		// Sweep 1: find the farthest node from a random start.
		for i := range dist {
			dist[i] = Unreachable
		}
		var order []int32
		order, _ = g.BFSInto(v, dist, queue)
		far := order[len(order)-1]
		// Sweep 2: eccentricity of that far node lower-bounds the diameter.
		for i := range dist {
			dist[i] = Unreachable
		}
		var ecc int32
		queue, ecc = g.BFSInto(int(far), dist, order)
		if ecc > best {
			best = ecc
		}
	}
	return int(best)
}

// ConnectedComponents labels every node with a component id in
// [0, numComponents) and returns the labels plus component sizes.
func (g *Graph) ConnectedComponents() (labels []int32, sizes []int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if labels[v] != -1 {
			continue
		}
		id := int32(len(sizes))
		labels[v] = id
		queue = queue[:0]
		queue = append(queue, int32(v))
		count := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			count++
			for _, w := range g.Neighbors(int(u)) {
				if labels[w] == -1 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, count)
	}
	return labels, sizes
}

// IsConnected reports whether the graph is connected (vacuously true for
// graphs with < 2 nodes).
func (g *Graph) IsConnected() bool {
	_, sizes := g.ConnectedComponents()
	return len(sizes) <= 1
}
