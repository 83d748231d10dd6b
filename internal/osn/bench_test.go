package osn

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// benchNet returns a mid-size preferential-attachment network, the scale at
// which hub-node neighbor lookups dominate sampling cost.
func benchNet(tb testing.TB) *Network {
	tb.Helper()
	g := gen.BarabasiAlbert(20000, 5, rand.New(rand.NewSource(2)))
	return NewNetwork(g)
}

// BenchmarkNeighborsHot measures the warm-cache Neighbors path — the single
// hottest operation of the whole sampler (one call per walk step, forward
// and backward). It must report 0 allocs/op: the dense L1 is a bit test plus
// an array index.
func BenchmarkNeighborsHot(b *testing.B) {
	net := benchNet(b)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	const span = 1024
	for v := 0; v < span; v++ {
		c.Neighbors(v) // warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(c.Neighbors(i & (span - 1)))
	}
	_ = sink
}

// BenchmarkNeighborsHotShared is the same warm path for a client attached to
// a SharedCache: there is no private tier, so every op is a wait-free read
// of the shared pages (directory loads, an atomic presence-word load, the
// list header) — the state estimation workers run in once any sibling has
// fetched a region. It must report 0 allocs/op.
func BenchmarkNeighborsHotShared(b *testing.B) {
	net := benchNet(b)
	base := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	c := base.Fork(rand.New(rand.NewSource(4)))
	const span = 1024
	for v := 0; v < span; v++ {
		c.Neighbors(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(c.Neighbors(i & (span - 1)))
	}
	_ = sink
}

// BenchmarkNeighborsMiss measures the cold path every first access takes
// (Client.admit as a batch of one): a fresh private client fetching 4,096
// distinct nodes of the in-memory graph, reported as ns per miss.
func BenchmarkNeighborsMiss(b *testing.B) {
	net := benchNet(b)
	const misses = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
		for v := 0; v < misses; v++ {
			c.Neighbors(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*misses), "ns/miss")
}

// TestNeighborsWarmAllocs is the allocation-regression guard for the warm
// read path, private and shared: zero allocations.
func TestNeighborsWarmAllocs(t *testing.T) {
	net := benchNet(t)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	c.Neighbors(7)
	if avg := testing.AllocsPerRun(1000, func() { c.Neighbors(7) }); avg != 0 {
		t.Errorf("warm private Neighbors allocates %v/op, want 0", avg)
	}

	fork := c.Fork(rand.New(rand.NewSource(4)))
	if avg := testing.AllocsPerRun(1000, func() { fork.Neighbors(7) }); avg != 0 {
		t.Errorf("warm shared Neighbors allocates %v/op, want 0", avg)
	}

	// A fresh shared client reading entries a sibling already fetched — the
	// state every serve job starts in — must not allocate even on its first
	// read of a page-sized id range: it has no private pages to fill.
	const pages = 64
	for k := 0; k < pages; k++ {
		fork.Neighbors(k * l1Size)
	}
	fresh := NewClientShared(net, CostUniqueNodes, rand.New(rand.NewSource(5)), c.Shared())
	k := 0
	if avg := testing.AllocsPerRun(pages-1, func() { fresh.Neighbors(k * l1Size); k++ }); avg != 0 {
		t.Errorf("fresh shared client reading warm entries allocates %v/op, want 0", avg)
	}
}

// TestNeighborsColdMissAllocs is the allocation guard for the miss path:
// a Neighbors miss is a batch of one through Client.admit, held in client
// scratch, so a miss into a page already allocated — private L1 and
// accounting pages, or shared-cache pages — allocates nothing.
func TestNeighborsColdMissAllocs(t *testing.T) {
	net := benchNet(t)
	private := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	shared := NewClientShared(net, CostUniqueNodes, rand.New(rand.NewSource(4)), NewSharedCache())
	for name, c := range map[string]*Client{"private": private, "shared": shared} {
		c.Neighbors(0) // allocates page 0 and the client's scratch
		v := 1
		avg := testing.AllocsPerRun(100, func() { c.Neighbors(v); v++ })
		if avg != 0 {
			t.Errorf("%s cold miss allocates %v/op, want 0", name, avg)
		}
		if c.Queries() != int64(v) || v >= l1Size {
			t.Fatalf("%s: %d queries after %d misses in page 0", name, c.Queries(), v)
		}
	}
}

// TestKnownNodesBitsets checks the bitset-backed accounting agrees between
// private and promoted clients, including sortedness.
func TestKnownNodesBitsets(t *testing.T) {
	net := benchNet(t)
	c := NewClient(net, CostUniqueNodes, rand.New(rand.NewSource(3)))
	for _, v := range []int{99, 3, 70, 3, 65, 64, 63} {
		c.Neighbors(v)
	}
	want := []int{3, 63, 64, 65, 70, 99}
	got := c.KnownNodes()
	if len(got) != len(want) {
		t.Fatalf("KnownNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KnownNodes = %v, want %v", got, want)
		}
	}
	if q := c.Queries(); q != int64(len(want)) {
		t.Errorf("Queries = %d, want %d", q, len(want))
	}

	fork := c.Fork(rand.New(rand.NewSource(4)))
	fork.Neighbors(1000)
	got = c.KnownNodes() // shared view now
	if len(got) != len(want)+1 || got[len(got)-1] != 1000 {
		t.Errorf("promoted KnownNodes = %v, want %v + [1000]", got, want)
	}
	if n := c.Shared().UniqueNodes(); n != len(want)+1 {
		t.Errorf("UniqueNodes = %d, want %d", n, len(want)+1)
	}
}
