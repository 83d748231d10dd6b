package osn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestSharedCacheUniqueCharging drives N concurrent clients over heavily
// overlapping node sets and checks the CostUniqueNodes contract: each unique
// node is charged exactly once across the fleet, the shared meter equals the
// sum of the per-client meters, and every client gets the same list for a
// node. The workers resolve the shared block through different fill paths at
// once — per-node Neighbors, batched Prefetch/NeighborsBatch, and Attr (a
// charge with no fill) — each starting at a different offset, so every path
// races every other for the same first-access bits and page fills. Run under
// -race this also exercises the wait-free publication order.
func TestSharedCacheUniqueCharging(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, rand.New(rand.NewSource(1)))
	vals := make([]float64, g.NumNodes())
	net := NewNetwork(g, WithAttribute("score", vals))
	sc := NewSharedCache()

	const workers, block = 9, 100
	clients := make([]*Client, workers)
	seen := make([][]*int32, workers) // seen[w][v]: data pointer of v's list
	for w := range clients {
		clients[w] = NewClientShared(net, CostUniqueNodes, rand.New(rand.NewSource(int64(w))), sc)
		seen[w] = make([]*int32, block)
	}

	// Every worker resolves the shared block [0,100) plus a disjoint private
	// block of 25 nodes, twice each (the repeat must be free).
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			order := make([]int32, block)
			for i := range order {
				order[i] = int32((i + 11*w) % block)
			}
			out := make([][]int32, 10)
			for rep := 0; rep < 2; rep++ {
				for i := 0; i < block; i += len(out) {
					chunk := order[i : i+len(out)]
					switch w % 3 {
					case 0:
						for j, v := range chunk {
							out[j] = c.Neighbors(int(v))
						}
					case 1:
						c.Prefetch(chunk[:len(chunk)/2])
						c.NeighborsBatch(chunk, out)
					case 2:
						for j, v := range chunk {
							if _, err := c.Attr("score", int(v)); err != nil {
								t.Error(err)
								return
							}
							out[j] = c.Neighbors(int(v))
						}
					}
					for j, v := range chunk {
						if len(out[j]) != g.Degree(int(v)) {
							t.Errorf("worker %d: wrong neighbor list for %d", w, v)
							return
						}
						seen[w][v] = &out[j][0]
					}
				}
				for v := block + 25*w; v < block+25*(w+1); v++ {
					c.Neighbors(v)
				}
			}
		}(w)
	}
	wg.Wait()

	for v := 0; v < block; v++ {
		for w := 1; w < workers; w++ {
			if seen[w][v] != seen[0][v] {
				t.Fatalf("node %d: worker %d holds a different list than worker 0", v, w)
			}
		}
	}
	unique := int64(block + 25*workers)
	if sc.Queries() != unique {
		t.Errorf("shared queries = %d, want %d (each unique node charged exactly once)", sc.Queries(), unique)
	}
	if got := int64(sc.UniqueNodes()); got != unique {
		t.Errorf("unique nodes = %d, want %d", got, unique)
	}
	var sum int64
	for _, c := range clients {
		sum += c.Queries()
		if c.TotalQueries() != sc.Queries() {
			t.Errorf("TotalQueries = %d, want shared %d", c.TotalQueries(), sc.Queries())
		}
	}
	if sum != unique {
		t.Errorf("sum of per-client meters = %d, want %d", sum, unique)
	}
	if len(sc.KnownNodes()) != int(unique) {
		t.Errorf("known nodes = %d, want %d", len(sc.KnownNodes()), unique)
	}
}

// TestForkPromotesPrivateCache checks that forking a private client moves its
// cache and accounting into the shared cache: nothing already paid for is
// charged again, by the parent or by the fork.
func TestForkPromotesPrivateCache(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, rand.New(rand.NewSource(2)))
	net := NewNetwork(g)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	for v := 0; v < 50; v++ {
		c.Neighbors(v)
	}
	if c.Queries() != 50 {
		t.Fatalf("pre-fork queries = %d, want 50", c.Queries())
	}

	child := c.Fork(rand.New(rand.NewSource(4)))
	sc := c.Shared()
	if sc == nil || child.Shared() != sc {
		t.Fatal("fork must attach parent and child to one shared cache")
	}
	if sc.Queries() != 50 {
		t.Fatalf("promotion lost accounting: shared queries = %d, want 50", sc.Queries())
	}
	for v := 0; v < 50; v++ {
		child.Neighbors(v) // all cache hits, free
	}
	if child.Queries() != 0 {
		t.Errorf("child re-charged promoted nodes: %d", child.Queries())
	}
	c.Neighbors(50)
	child.Neighbors(50) // first touched by parent: free for the child
	if got := sc.Queries(); got != 51 {
		t.Errorf("shared queries = %d, want 51", got)
	}
	if c.TotalQueries() != 51 || child.TotalQueries() != 51 {
		t.Errorf("TotalQueries parent/child = %d/%d, want 51/51", c.TotalQueries(), child.TotalQueries())
	}
}

// TestSharedCacheAttrCharging checks the profile-fetch accounting path under
// a shared cache: an attribute of a node any sibling has already queried is
// free; a fresh node costs one query.
func TestSharedCacheAttrCharging(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, rand.New(rand.NewSource(5)))
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(i)
	}
	net := NewNetwork(g, WithAttribute("stars", vals))
	sc := NewSharedCache()
	a := NewClientShared(net, CostUniqueNodes, rand.New(rand.NewSource(6)), sc)
	b := NewClientShared(net, CostUniqueNodes, rand.New(rand.NewSource(7)), sc)

	a.Neighbors(3)
	if v, err := b.Attr("stars", 3); err != nil || v != 3 {
		t.Fatalf("Attr = %v, %v", v, err)
	}
	if sc.Queries() != 1 {
		t.Errorf("attr of already-queried node charged: %d", sc.Queries())
	}
	if _, err := b.Attr("stars", 7); err != nil {
		t.Fatal(err)
	}
	if sc.Queries() != 2 || b.Queries() != 1 {
		t.Errorf("fresh attr fetch: shared=%d client=%d, want 2/1", sc.Queries(), b.Queries())
	}
}
