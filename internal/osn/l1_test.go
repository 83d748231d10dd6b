package osn

// Tests for the paged client L1 and shared cache: footprint bounded by
// visited mass on a multi-million-node backend, and paged bookkeeping
// (presence, queried, KnownNodes) agreeing with the metered semantics across
// page boundaries.

import (
	"math/rand"
	"runtime"
	"testing"
)

// stubBackend is a minimal Backend over a huge synthetic id space: every
// node has the same tiny neighbor list, so client-side memory is the only
// thing a test over it can measure.
type stubBackend struct {
	n    int
	list []int32
}

func (s stubBackend) NumNodes() int           { return s.n }
func (s stubBackend) NumEdges() int           { return s.n }
func (s stubBackend) Degree(v int) int        { return len(s.list) }
func (s stubBackend) Neighbors(v int) []int32 { return s.list }
func (s stubBackend) NeighborsBatch(vs []int32, out [][]int32) {
	for i := range vs {
		out[i] = s.list
	}
}
func (s stubBackend) Attr(name string, v int) (float64, bool) { return 0, false }
func (s stubBackend) AttrNames() []string                     { return nil }

// TestClientSparseFootprint is the paged-cache memory regression: a client
// over a 5M-node backend that touches a few hundred scattered nodes must
// cost kilobytes of directory plus the touched pages — not the O(24n)
// bytes of a dense header layout (~120 MB here). The bound holds for a
// private client's L1 and for a client reading a fresh SharedCache (the
// cache every parallel job promotes into) alike.
func TestClientSparseFootprint(t *testing.T) {
	net := NewNetworkOn(stubBackend{n: 5_000_000, list: []int32{1, 2, 3}})
	for _, shared := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rng := rand.New(rand.NewSource(1))
		c := NewClient(net, CostUniqueNodes, rng)
		if shared {
			c = NewClientShared(net, CostUniqueNodes, rng, NewSharedCache())
		}
		for v := 0; v < 5_000_000; v += 25_000 { // 200 scattered nodes
			c.Neighbors(v)
		}
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		// Directory: 5M/256 pointers ≈ 156 KB. 200 pages ≈ 1.25 MB. Dense
		// headers would be ~120 MB; budget 4 MB keeps 30× slack below that
		// while catching any return to O(n) headers.
		const budget = 4 << 20
		if grew > budget {
			t.Fatalf("sparse client (shared=%v) footprint %d B, want <= %d B (visited-mass bound)", shared, grew, budget)
		}
		if got := c.Queries(); got != 200 {
			t.Fatalf("shared=%v: queries = %d, want 200", shared, got)
		}
		t.Logf("sparse 5M-node client (shared=%v): %d B total", shared, grew)
	}
}

// TestAccountingOnlyFootprint pins the accounting-page split: charges that
// never cache a neighbor list (the Attr path on a private client) must
// allocate only the two-cache-line acctPages, never 6 KiB l1Pages of
// neighbor headers.
func TestAccountingOnlyFootprint(t *testing.T) {
	net := NewNetworkOn(stubBackend{n: 5_000_000, list: []int32{1}},
		WithAttribute("score", make([]float64, 5_000_000)))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(1)))
	for v := 0; v < 5_000_000; v += 25_000 { // 200 scattered accounting-only touches
		if _, err := c.Attr("score", v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	// Two directories ≈ 312 KB, 200 acctPages ≈ 13 KB. l1Pages here would
	// add ~1.25 MB; the budget catches any return to header-sized pages on
	// the accounting path.
	const budget = 600 << 10
	if grew > budget {
		t.Fatalf("accounting-only footprint %d B, want <= %d B (acctPage split)", grew, budget)
	}
	if got := c.Queries(); got != 200 {
		t.Fatalf("queries = %d, want 200", got)
	}
	t.Logf("accounting-only 5M-node client: %d B total", grew)
}

// TestPagedL1Bookkeeping exercises presence and queried bits across page
// boundaries for private and shared clients: repeat lookups stay free
// under CostUniqueNodes, KnownNodes reports exactly the touched ids, and
// Fork promotes every cached page into the shared cache.
func TestPagedL1Bookkeeping(t *testing.T) {
	net := NewNetworkOn(stubBackend{n: 4 * l1Size, list: []int32{0}})
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(2)))
	touched := []int{0, 1, l1Size - 1, l1Size, l1Size + 1, 3*l1Size - 1, 4*l1Size - 1}
	for _, v := range touched {
		c.Neighbors(v)
		c.Neighbors(v) // warm repeat must not re-charge
	}
	if got, want := c.Queries(), int64(len(touched)); got != want {
		t.Fatalf("queries = %d, want %d", got, want)
	}
	known := c.KnownNodes()
	if len(known) != len(touched) {
		t.Fatalf("KnownNodes = %v, want %v", known, touched)
	}
	for i, v := range touched {
		if known[i] != v {
			t.Fatalf("KnownNodes[%d] = %d, want %d", i, known[i], v)
		}
	}

	// Fork: promoted shared cache must already hold everything paid for.
	sib := c.Fork(rand.New(rand.NewSource(3)))
	for _, v := range touched {
		sib.Neighbors(v)
	}
	if got := sib.Queries(); got != 0 {
		t.Fatalf("sibling re-charged %d promoted nodes", got)
	}
	if got, want := c.TotalQueries(), int64(len(touched)); got != want {
		t.Fatalf("fleet queries = %d, want %d", got, want)
	}
	sharedKnown := c.KnownNodes()
	if len(sharedKnown) != len(touched) {
		t.Fatalf("shared KnownNodes = %v, want %v", sharedKnown, touched)
	}
}

// TestPagedL1BatchMatchesPerNode checks the batched path over page
// boundaries: NeighborsBatch on a mix of warm, shared-warm, and cold ids
// returns exactly what per-node calls do and charges identically.
func TestPagedL1BatchMatchesPerNode(t *testing.T) {
	net := NewNetworkOn(stubBackend{n: 4 * l1Size, list: []int32{5, 6}})
	a := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(4)))
	b := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(4)))

	ids := []int32{0, int32(l1Size - 1), int32(l1Size), 7, 7, int32(2 * l1Size), 0}
	out := make([][]int32, len(ids))
	a.NeighborsBatch(ids, out)
	for i, v := range ids {
		want := b.Neighbors(int(v))
		if len(out[i]) != len(want) {
			t.Fatalf("batch[%d] (node %d) = %v, per-node %v", i, v, out[i], want)
		}
	}
	if a.Queries() != b.Queries() {
		t.Fatalf("batch charged %d, per-node %d", a.Queries(), b.Queries())
	}
}
