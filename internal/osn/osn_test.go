package osn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	stars := []float64{1, 2, 3, 4}
	return NewNetwork(g, WithAttribute("stars", stars))
}

func TestClientQueryAccounting(t *testing.T) {
	net := testNetwork(t)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(1)))
	if len(c.Neighbors(0)) != 2 {
		t.Fatal("node 0 should have 2 neighbors")
	}
	if c.Queries() != 1 || c.Calls() != 1 {
		t.Fatalf("queries=%d calls=%d, want 1/1", c.Queries(), c.Calls())
	}
	c.Neighbors(0) // cached
	if c.Queries() != 1 {
		t.Fatalf("cached repeat charged: %d", c.Queries())
	}
	if c.Calls() != 1 {
		t.Fatalf("cached repeat should not count as a call either: %d", c.Calls())
	}
	c.Neighbors(2)
	if c.Queries() != 2 {
		t.Fatalf("queries=%d, want 2", c.Queries())
	}
	if got := c.Degree(2); got != 3 {
		t.Fatalf("Degree(2) = %d", got)
	}
}

func TestClientUncacheableViewChargesUnique(t *testing.T) {
	net := testNetwork(t)
	// Under a non-deterministic restriction nothing is cached, so every
	// invocation is a call, but the node is still charged once.
	g := net.Graph()
	net2 := NewNetwork(g, WithRestriction(RandomK{K: 1}))
	c := NewClient(net2, CostUniqueNodes, rand.New(rand.NewSource(1)))
	c.Neighbors(2)
	c.Neighbors(2)
	c.Neighbors(2)
	if c.Queries() != 1 || c.Calls() != 3 {
		t.Fatalf("uncacheable view queries=%d calls=%d, want 1/3", c.Queries(), c.Calls())
	}
}

func TestAttr(t *testing.T) {
	net := testNetwork(t)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(1)))
	v, err := c.Attr("stars", 3)
	if err != nil || v != 4 {
		t.Fatalf("Attr(stars,3) = %v, %v", v, err)
	}
	// Accessing the attribute of an unseen node is a node access.
	if c.Queries() != 1 {
		t.Fatalf("attr access should charge: %d", c.Queries())
	}
	// Degree pseudo-attribute.
	d, err := c.Attr(AttrDegree, 2)
	if err != nil || d != 3 {
		t.Fatalf("Attr(degree,2) = %v, %v", d, err)
	}
	if _, err := c.Attr("nope", 0); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

// trueMean is the exact population mean of an attribute table, attached or
// stored by the backend, or of degree when name is AttrDegree and no table
// has that name: the ground truth the attribute tests compare against.
func trueMean(n *Network, name string) (float64, error) {
	vals, ok := n.attrs[name]
	if !ok && n.be.NumNodes() > 0 {
		if _, ok = n.be.Attr(name, 0); ok {
			vals = make([]float64, n.be.NumNodes())
			for v := range vals {
				vals[v], _ = n.be.Attr(name, v)
			}
		}
	}
	if !ok {
		if name != AttrDegree {
			return 0, fmt.Errorf("unknown attribute %q", name)
		}
		return 2 * float64(n.be.NumEdges()) / float64(n.be.NumNodes()), nil
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals)), nil
}

func TestTrueMean(t *testing.T) {
	net := testNetwork(t)
	m, err := trueMean(net, "stars")
	if err != nil || math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("trueMean(stars) = %v, %v", m, err)
	}
	d, err := trueMean(net, AttrDegree)
	if err != nil || math.Abs(d-2.0) > 1e-12 {
		t.Fatalf("trueMean(degree) = %v, %v", d, err)
	}
	if _, err := trueMean(net, "nope"); err == nil {
		t.Fatal("unknown attribute should error")
	}
	if names := net.AttrNames(); len(names) != 1 || names[0] != "stars" {
		t.Fatalf("AttrNames = %v", names)
	}
}

func TestAttributeLengthPanics(t *testing.T) {
	g := gen.Cycle(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad attribute length")
		}
	}()
	NewNetwork(g, WithAttribute("x", []float64{1, 2}))
}

func TestRandomKRestriction(t *testing.T) {
	g := gen.Star(20) // hub has 19 neighbors
	net := NewNetwork(g, WithRestriction(RandomK{K: 5}))
	rng := rand.New(rand.NewSource(2))
	c := NewClient(net, CostUniqueNodes, rng)
	s1 := append([]int32(nil), c.Neighbors(0)...)
	if len(s1) != 5 {
		t.Fatalf("RandomK returned %d", len(s1))
	}
	// Leaves have 1 neighbor <= K: returned in full.
	if len(c.Neighbors(1)) != 1 {
		t.Fatal("small lists must pass through")
	}
	// Unique-node accounting still counts the hub once even though calls
	// are not cached.
	c.Neighbors(0)
	c.Neighbors(0)
	if c.Queries() != 2 { // hub + leaf
		t.Fatalf("unique queries = %d, want 2", c.Queries())
	}
	if c.Calls() != 4 {
		t.Fatalf("calls = %d, want 4", c.Calls())
	}
	// Over many invocations we should see (almost) all 19 distinct leaves.
	seen := map[int32]bool{}
	for i := 0; i < 200; i++ {
		for _, w := range c.Neighbors(0) {
			seen[w] = true
		}
	}
	if len(seen) < 15 {
		t.Fatalf("RandomK diversity too low: %d distinct", len(seen))
	}
}

func TestFixedKRestrictionStable(t *testing.T) {
	g := gen.Star(20)
	net := NewNetwork(g, WithRestriction(FixedK{K: 5, Seed: 99}))
	c1 := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	c2 := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(4)))
	a := c1.Neighbors(0)
	b := c2.Neighbors(0)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("FixedK sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FixedK must be identical across clients")
		}
	}
	// Cached on repeat: only one charge.
	c1.Neighbors(0)
	if c1.Queries() != 1 {
		t.Fatalf("FixedK should cache: %d", c1.Queries())
	}
}

func TestTruncateLRestriction(t *testing.T) {
	g := gen.Star(20)
	net := NewNetwork(g, WithRestriction(TruncateL{L: 3}))
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(5)))
	nbr := c.Neighbors(0)
	if len(nbr) != 3 {
		t.Fatalf("TruncateL returned %d", len(nbr))
	}
	full := g.Neighbors(0)
	for i := range nbr {
		if nbr[i] != full[i] {
			t.Fatal("TruncateL must return a prefix")
		}
	}
}

func TestEdgeVisibleBidirectionalCheck(t *testing.T) {
	// Star hub truncated to 2 neighbors: edges to trimmed leaves are
	// invisible even though the leaf still lists the hub.
	g := gen.Star(10)
	net := NewNetwork(g, WithRestriction(TruncateL{L: 2}))
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(6)))
	visible := c.Neighbors(0)
	if !c.EdgeVisible(0, int(visible[0])) {
		t.Fatal("listed edge should be visible")
	}
	if c.EdgeVisible(0, 9) {
		t.Fatal("trimmed edge should be invisible")
	}
	// Unrestricted network: all edges visible both ways.
	net2 := NewNetwork(g)
	c2 := NewClient(net2, CostUniqueNodes, rand.New(rand.NewSource(7)))
	if !c2.EdgeVisible(0, 9) || c2.EdgeVisible(1, 2) {
		t.Fatal("unrestricted visibility wrong")
	}
}

func TestRateLimitSimulation(t *testing.T) {
	g := gen.Complete(30)
	net := NewNetwork(g, WithRateLimit(10, 15*time.Minute))
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(8)))
	for v := 0; v < 25; v++ {
		c.Neighbors(v)
	}
	// 25 queries at 10/window: waits after the 11th and 21st.
	if got, want := c.Waited(), 30*time.Minute; got != want {
		t.Fatalf("Waited = %v, want %v", got, want)
	}
}

func TestKnownNodes(t *testing.T) {
	net := testNetwork(t)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(9)))
	c.Neighbors(2)
	c.Neighbors(0)
	c.Neighbors(2)
	if got := c.KnownNodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("KnownNodes = %v, want [0 2]", got)
	}
}

func TestMarkRecapture(t *testing.T) {
	g := gen.Star(101) // hub degree 100
	net := NewNetwork(g, WithRestriction(RandomK{K: 30}))
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(10)))
	est, err := EstimateDegreeMarkRecapture(c, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if est < 70 || est > 130 {
		t.Fatalf("mark-recapture degree = %v, want ~100", est)
	}
	// Tiny overlap case: k=1 out of 100 rarely overlaps, may error — both
	// outcomes acceptable, but no panic.
	net2 := NewNetwork(g, WithRestriction(RandomK{K: 1}))
	c2 := NewClient(net2, CostUniqueNodes, rand.New(rand.NewSource(11)))
	if est2, err2 := EstimateDegreeMarkRecapture(c2, 0, 3); err2 == nil && est2 <= 0 {
		t.Fatal("nonsensical estimate")
	}
}
