package graph

import "math/rand"

// LocalClustering returns the local clustering coefficient of v: the fraction
// of pairs of v's neighbors that are themselves connected. Nodes with degree
// < 2 have coefficient 0 by convention (matching NetworkX, which the paper's
// evaluation used).
func (g *Graph) LocalClustering(v int) float64 {
	nbr := g.Neighbors(v)
	d := len(nbr)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(int(nbr[i]), int(nbr[j])) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AvgClustering computes the exact average local clustering coefficient over
// all nodes. O(sum over v of d(v)^2 * log d); fine for the paper's graph
// sizes but consider AvgClusteringSampled for very dense graphs.
func (g *Graph) AvgClustering() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for v := 0; v < n; v++ {
		sum += g.LocalClustering(v)
	}
	return sum / float64(n)
}

// AvgClusteringSampled estimates the average local clustering coefficient
// from `samples` uniformly random nodes.
func (g *Graph) AvgClusteringSampled(samples int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 || samples <= 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += g.LocalClustering(rng.Intn(n))
	}
	return sum / float64(samples)
}

// AvgShortestPath computes the exact mean shortest-path length over all
// connected ordered pairs, via all-pairs BFS. O(|V|·(|V|+|E|)); use
// AvgShortestPathSampled for large graphs.
func (g *Graph) AvgShortestPath() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var total float64
	var pairs int64
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		var order []int32
		order, _ = g.BFSInto(v, dist, queue)
		queue = order
		for _, u := range order {
			if int(u) != v {
				total += float64(dist[u])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// AvgShortestPathSampled estimates the mean shortest-path length by running
// BFS from `sources` uniformly random source nodes and averaging distances to
// all reachable nodes.
func (g *Graph) AvgShortestPathSampled(sources int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n < 2 || sources <= 0 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var total float64
	var pairs int64
	for s := 0; s < sources; s++ {
		v := rng.Intn(n)
		for i := range dist {
			dist[i] = Unreachable
		}
		var order []int32
		order, _ = g.BFSInto(v, dist, queue)
		queue = order
		for _, u := range order {
			if int(u) != v {
				total += float64(dist[u])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}
