package osn

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fastrand"
	"repro/internal/graph"
)

func backendTestGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	// A spanning path so no node is stranded.
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

func diskBackendFor(t *testing.T, g *graph.Graph) DiskBackend {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.SaveCSR(path, g, map[string][]float64{"attr": make([]float64, g.NumNodes())}); err != nil {
		t.Fatal(err)
	}
	be, m, err := OpenDiskBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return be
}

// All three backends must serve identical topology.
func TestBackendsEquivalent(t *testing.T) {
	g := backendTestGraph(3, 120, 400)
	mem := NewMemBackend(g)
	disk := diskBackendFor(t, g)
	sim := NewRemoteSim(NewMemBackend(g), 0, 0, 4)
	for _, tc := range []struct {
		name string
		be   Backend
	}{{"disk", disk}, {"sim", sim}} {
		if tc.be.NumNodes() != mem.NumNodes() || tc.be.NumEdges() != mem.NumEdges() {
			t.Fatalf("%s: shape n=%d m=%d", tc.name, tc.be.NumNodes(), tc.be.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			want := mem.Neighbors(v)
			got := tc.be.Neighbors(v)
			if len(got) != len(want) || tc.be.Degree(v) != len(want) {
				t.Fatalf("%s: node %d degree", tc.name, v)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d neighbor %d", tc.name, v, i)
				}
			}
		}
		// Batch answers must match per-node answers, including duplicates.
		vs := []int32{5, 0, 5, 119, 40}
		out := make([][]int32, len(vs))
		tc.be.NeighborsBatch(vs, out)
		for i, v := range vs {
			want := mem.Neighbors(int(v))
			if len(out[i]) != len(want) {
				t.Fatalf("%s: batch[%d]", tc.name, i)
			}
			for j := range want {
				if out[i][j] != want[j] {
					t.Fatalf("%s: batch[%d][%d]", tc.name, i, j)
				}
			}
		}
	}
	if _, ok := disk.Attr("attr", 0); !ok {
		t.Error("disk backend lost embedded attribute")
	}
	if _, ok := disk.Attr("none", 0); ok {
		t.Error("disk backend invented an attribute")
	}
}

// A network over a disk backend must behave exactly like one over the
// in-memory backend, and serve CSR-embedded attributes.
func TestNetworkOnDiskBackend(t *testing.T) {
	g := backendTestGraph(4, 80, 200)
	path := filepath.Join(t.TempDir(), "g.csr")
	attr := make([]float64, g.NumNodes())
	for v := range attr {
		attr[v] = float64(v) + 0.5
	}
	if err := graph.SaveCSR(path, g, map[string][]float64{"stars": attr}); err != nil {
		t.Fatal(err)
	}
	be, m, err := OpenDiskBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	net := NewNetworkOn(be)
	if net.Graph() == nil {
		t.Fatal("disk-backed network should expose a ground-truth view")
	}
	if net.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes = %d", net.NumNodes())
	}
	mean, err := trueMean(net, "stars")
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, v := range attr {
		want += v
	}
	want /= float64(len(attr))
	if mean != want {
		t.Fatalf("trueMean(stars) = %v, want %v", mean, want)
	}
	if dm, err := trueMean(net, AttrDegree); err != nil || dm != g.AvgDegree() {
		t.Fatalf("trueMean(degree) = %v, %v", dm, err)
	}
	found := false
	for _, name := range net.AttrNames() {
		if name == "stars" {
			found = true
		}
	}
	if !found {
		t.Errorf("AttrNames missing backend attribute: %v", net.AttrNames())
	}
	c := NewClient(net, CostUniqueNodes, fastrand.New(1))
	if v, err := c.Attr("stars", 3); err != nil || v != attr[3] {
		t.Fatalf("Attr(stars, 3) = %v, %v", v, err)
	}
}

// NeighborsBatch must be observationally identical to per-node Neighbors:
// same lists, same query cost, same call count, same failed fetches, same
// known-node set — for any (graph, restriction, shared/private, frontier)
// combination, over a plain backend, over a faulted one (transient faults
// absorbed by a ResilientBackend, and one round in full outage), and in a
// fleet-partitioned cache whose stub resolver is down for one round. Both
// paths end in Client.admit, so this pins its batch-of-one form to its
// batch form.
func TestNeighborsBatchEquivalenceProperty(t *testing.T) {
	const (
		plain = iota
		faulted
		partitioned
	)
	prop := func(seed int64, useShared bool, restr, kind uint8) bool {
		n := 60 + int(uint(seed)%40)
		g := backendTestGraph(seed, n, 3*n)
		kind %= 3
		var opts []Option
		switch restr % 3 {
		case 1:
			opts = append(opts, WithRestriction(FixedK{K: 3, Seed: seed}))
		case 2:
			opts = append(opts, WithRestriction(TruncateL{L: 4}))
		}
		if kind == partitioned {
			// Owners serve raw lists: partitions need a shared,
			// unrestricted view.
			useShared, opts = true, nil
		}
		mode := CostUniqueNodes
		// newClient returns a client and the switch that takes its backend
		// (or its shard owners) down for a round.
		newClient := func() (*Client, func(down bool)) {
			switch kind {
			case faulted:
				fs, err := NewFaultSim(NewMemBackend(g), FaultConfig{Seed: seed, TransientRate: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				res := NewResilientBackend(fs, ResilientPolicy{
					MaxRetries:       8,
					BaseBackoff:      time.Nanosecond,
					MaxBackoff:       time.Nanosecond,
					RetryBudget:      1e9,
					BreakerThreshold: 1 << 30,
				})
				net := NewNetworkOn(res, opts...)
				outage := func(down bool) {
					if down {
						fs.StartOutage()
					} else {
						fs.EndOutage()
					}
				}
				if useShared {
					return NewClientShared(net, mode, fastrand.New(seed), NewSharedCache()), outage
				}
				return NewClient(net, mode, fastrand.New(seed)), outage
			case partitioned:
				nets, caches, res := partitionedFleet(NewMemBackend(g), 3)
				return NewClientShared(nets[0], mode, fastrand.New(seed), caches[0]), func(down bool) { res.fail = down }
			}
			net := NewNetworkOn(NewMemBackend(g), opts...)
			if useShared {
				return NewClientShared(net, mode, fastrand.New(seed), NewSharedCache()), func(bool) {}
			}
			return NewClient(net, mode, fastrand.New(seed)), func(bool) {}
		}
		a, downA := newClient()
		b, downB := newClient()
		frontRng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for round := 0; round < 4; round++ {
			k := 1 + frontRng.Intn(25)
			vs := make([]int32, k)
			for i := range vs {
				vs[i] = int32(frontRng.Intn(n))
			}
			down := kind != plain && round == 2
			if down && kind == faulted {
				// A failed fetch is not cached, so per-node calls retry a
				// repeated id where the batch fetches it once: keep the
				// outage round's frontier distinct.
				slices.Sort(vs)
				vs = slices.Compact(vs)
			}
			downA(down)
			downB(down)
			out := make([][]int32, len(vs))
			a.NeighborsBatch(vs, out)
			for i, v := range vs {
				if !slices.Equal(out[i], b.Neighbors(int(v))) {
					return false
				}
			}
		}
		if a.Queries() != b.Queries() || a.TotalQueries() != b.TotalQueries() ||
			a.Calls() != b.Calls() || a.FailedFetches() != b.FailedFetches() {
			t.Logf("meters diverge: batch q=%d tq=%d c=%d f=%d, per-node q=%d tq=%d c=%d f=%d",
				a.Queries(), a.TotalQueries(), a.Calls(), a.FailedFetches(),
				b.Queries(), b.TotalQueries(), b.Calls(), b.FailedFetches())
			return false
		}
		if kind == faulted && a.FailedFetches() == 0 {
			t.Logf("faulted run saw no failed fetch")
			return false
		}
		return slices.Equal(a.KnownNodes(), b.KnownNodes())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

// Under a type-1 (per-call random) restriction nothing may be cached:
// NeighborsBatch must fall back to per-node semantics and Prefetch must be
// a free no-op (no charges, no RNG consumption).
func TestBatchUnderRandomKRestriction(t *testing.T) {
	g := backendTestGraph(11, 50, 150)
	net := NewNetworkOn(NewMemBackend(g), WithRestriction(RandomK{K: 2}))
	c := NewClient(net, CostUniqueNodes, fastrand.New(5))
	c.Prefetch([]int32{1, 2, 3})
	if c.Calls() != 0 || c.Queries() != 0 {
		t.Fatalf("Prefetch under RandomK charged: calls=%d queries=%d", c.Calls(), c.Queries())
	}
	vs := []int32{4, 5, 4}
	out := make([][]int32, len(vs))
	c.NeighborsBatch(vs, out)
	if c.Calls() != 3 {
		t.Fatalf("RandomK batch calls = %d, want 3 (per-call fallback)", c.Calls())
	}
	for i, v := range vs {
		if want := g.Degree(int(v)); len(out[i]) > 2 || (want >= 2 && len(out[i]) != 2) {
			t.Fatalf("restricted list %d has %d entries", i, len(out[i]))
		}
	}
}

// Regression test (ISSUE 3 satellite): when two workers race the same
// frontier through batched prefetch, the fleet meter must charge each
// unique node exactly once under CostUniqueNodes. Run under -race in CI.
func TestBatchedPrefetchChargesOncePerUniqueNode(t *testing.T) {
	g := backendTestGraph(21, 400, 1200)
	net := NewNetworkOn(NewMemBackend(g))
	sc := NewSharedCache()
	const workers = 4
	frontier := make([]int32, 0, 200)
	for v := 0; v < 200; v++ {
		frontier = append(frontier, int32(v))
	}
	var wg sync.WaitGroup
	clients := make([]*Client, workers)
	for w := 0; w < workers; w++ {
		clients[w] = NewClientShared(net, CostUniqueNodes, fastrand.New(int64(w)), sc)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(c *Client, off int) {
			defer wg.Done()
			// Same frontier, rotated so workers collide at different nodes
			// at different times.
			vs := make([]int32, len(frontier))
			for i := range frontier {
				vs[i] = frontier[(i+off*13)%len(frontier)]
			}
			c.Prefetch(vs[:len(vs)/2])
			c.Prefetch(vs) // second wave overlaps the first
		}(clients[w], w)
	}
	wg.Wait()
	if got := sc.Queries(); got != int64(len(frontier)) {
		t.Fatalf("fleet queries = %d, want %d (one per unique frontier node)", got, len(frontier))
	}
	if got := sc.UniqueNodes(); got != len(frontier) {
		t.Fatalf("unique nodes = %d, want %d", got, len(frontier))
	}
	var sum int64
	for _, c := range clients {
		sum += c.Queries()
	}
	if sum != int64(len(frontier)) {
		t.Fatalf("per-client meters sum to %d, want %d", sum, len(frontier))
	}
}

// The simulated remote backend must answer batches concurrently: a k-node
// batch at latency L should take ~ceil(k/fanout)·L, far less than k·L.
func TestRemoteSimBatchConcurrency(t *testing.T) {
	g := backendTestGraph(31, 64, 200)
	const latency = 10 * time.Millisecond
	sim := NewRemoteSim(NewMemBackend(g), latency, 0, 32)
	vs := make([]int32, 32)
	for i := range vs {
		vs[i] = int32(i)
	}
	out := make([][]int32, len(vs))
	start := time.Now()
	sim.NeighborsBatch(vs, out)
	batchTime := time.Since(start)
	if sim.RoundTrips() != int64(len(vs)) {
		t.Fatalf("round trips = %d, want %d", sim.RoundTrips(), len(vs))
	}
	// 32 nodes over 32 connections ≈ 1 RTT; allow generous scheduling slack
	// but require clearly better than half the serial cost.
	if serial := time.Duration(len(vs)) * latency; batchTime > serial/2 {
		t.Fatalf("batch took %v, not concurrent (serial would be %v)", batchTime, serial)
	}
	for i, v := range vs {
		if len(out[i]) != g.Degree(int(v)) {
			t.Fatalf("batch result %d wrong", i)
		}
	}
}

// Deterministic jitter must stay within ±Jitter around Latency and never
// perturb data.
func TestRemoteSimJitterBounds(t *testing.T) {
	g := backendTestGraph(41, 10, 20)
	sim := NewRemoteSim(NewMemBackend(g), 2*time.Millisecond, time.Millisecond, 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		nbr := sim.Neighbors(i)
		d := time.Since(start)
		if d < time.Millisecond {
			t.Fatalf("call %d slept only %v, want >= latency-jitter", i, d)
		}
		want := g.Neighbors(i)
		if len(nbr) != len(want) {
			t.Fatalf("jitter perturbed data at node %d", i)
		}
	}
}

// A mem backend decoded from a CSR file (attrs included) must present the
// same network as the disk backend over that file.
func TestMemBackendWithAttrsMatchesDisk(t *testing.T) {
	g := backendTestGraph(61, 90, 250)
	attr := make([]float64, g.NumNodes())
	for v := range attr {
		attr[v] = float64(v) * 1.5
	}
	tables := map[string][]float64{"score": attr}
	mem := NewMemBackendWithAttrs(g, tables)
	netM := NewNetworkOn(mem)
	mMean, err := trueMean(netM, "score")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.SaveCSR(path, g, tables); err != nil {
		t.Fatal(err)
	}
	disk, mapped, err := OpenDiskBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	dMean, err := trueMean(NewNetworkOn(disk), "score")
	if err != nil {
		t.Fatal(err)
	}
	if mMean != dMean {
		t.Fatalf("trueMean(score): mem %v != disk %v", mMean, dMean)
	}
	if got := mem.AttrNames(); len(got) != 1 || got[0] != "score" {
		t.Fatalf("AttrNames = %v", got)
	}
	if v, ok := mem.Attr("score", 4); !ok || v != attr[4] {
		t.Fatalf("Attr(score,4) = %v,%v", v, ok)
	}
}
