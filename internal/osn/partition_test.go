package osn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fastrand"
)

// loopResolver routes non-owned ids to the owner worker's cache in-process:
// the same grouping + ResolveOwned flow the cluster RPC performs, minus HTTP.
type loopResolver struct {
	caches []*SharedCache
	be     Backend
	fail   bool
}

func (r *loopResolver) ResolveShards(_ context.Context, ids []int32, lists [][]int32, first []bool) error {
	if r.fail {
		return errors.New("owners unreachable")
	}
	for i, v := range ids {
		owner := r.caches[0].Partition().OwnerOf(v)
		one := lists[i : i+1]
		f := first[i : i+1]
		err := r.caches[owner].ResolveOwned(ids[i:i+1], one, f, func(miss []int32, out [][]int32) error {
			r.be.NeighborsBatch(miss, out)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// partitionedFleet builds w workers over one backend: each has its own
// SharedCache with a Partition and a loop resolver to the others.
func partitionedFleet(be Backend, w int) ([]*Network, []*SharedCache, *loopResolver) {
	caches := make([]*SharedCache, w)
	nets := make([]*Network, w)
	res := &loopResolver{caches: caches, be: be}
	for i := 0; i < w; i++ {
		caches[i] = NewSharedCache()
		caches[i].SetPartition(&Partition{Index: i, Workers: w, Resolver: res})
		nets[i] = NewNetworkOn(be)
	}
	return nets, caches, res
}

func TestPartitionOwnershipDisjointAndTotal(t *testing.T) {
	const w = 3
	parts := make([]*Partition, w)
	for i := range parts {
		parts[i] = &Partition{Index: i, Workers: w}
	}
	for v := int32(0); v < 1000; v++ {
		owners := 0
		for i, p := range parts {
			if p.OwnerOf(v) != parts[0].OwnerOf(v) {
				t.Fatalf("workers disagree on owner of %d", v)
			}
			if p.Owns(v) {
				owners++
				if p.OwnerOf(v) != i {
					t.Fatalf("worker %d owns %d but OwnerOf says %d", i, v, p.OwnerOf(v))
				}
			}
		}
		if owners != 1 {
			t.Fatalf("node %d has %d owners, want exactly 1", v, owners)
		}
	}
	// Same-shard ids share an owner (the partition is by cache shard).
	p := parts[1]
	if p.OwnerOf(5) != p.OwnerOf(5+partitionShards) || p.OwnerOf(5) != p.OwnerOf(5+7*partitionShards) {
		t.Fatal("ids in one cache shard must share an owner")
	}
}

// A partitioned fleet must serve the same neighbor lists as a single shared
// cache, and the summed owned-unique meters (and summed requester charges)
// must equal the single-process unique-node total exactly.
func TestPartitionedFleetChargeParity(t *testing.T) {
	g := backendTestGraph(11, 300, 900)
	be := NewMemBackend(g)

	// Reference: one shared cache, one client, touch a fixed workload.
	refNet := NewNetworkOn(be)
	refCache := NewSharedCache()
	ref := NewClientShared(refNet, CostUniqueNodes, fastrand.New(1), refCache)

	const w = 3
	nets, caches, _ := partitionedFleet(be, w)
	clients := make([]*Client, w)
	for i := range clients {
		clients[i] = NewClientShared(nets[i], CostUniqueNodes, fastrand.New(1), caches[i])
	}

	// Overlapping per-worker workloads: every worker walks a stride of the
	// id space plus a common hub set, mixing owned and remote misses and
	// repeat (warm) accesses.
	hub := []int{0, 1, 2, 63, 64, 65, 128, 299}
	for i, c := range clients {
		for v := i; v < 300; v += 2 { // strides overlap across workers
			got := c.Neighbors(v)
			want := ref.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("worker %d: node %d list length %d != %d", i, v, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("worker %d: node %d neighbor %d differs", i, v, j)
				}
			}
		}
		for _, v := range hub {
			c.Neighbors(v)
			ref.Neighbors(v)
		}
	}

	var owned, queries int64
	for i, sc := range caches {
		owned += sc.OwnedUnique()
		queries += sc.Queries()
		if sc.RemoteFallbacks() != 0 {
			t.Fatalf("worker %d took %d fallbacks with live owners", i, sc.RemoteFallbacks())
		}
	}
	want := refCache.Queries()
	if owned != want {
		t.Fatalf("fleet owned-unique %d != single-process queries %d", owned, want)
	}
	if queries != want {
		t.Fatalf("fleet summed requester charges %d != single-process queries %d", queries, want)
	}
	if int64(refCache.UniqueNodes()) != want {
		t.Fatalf("reference invariant broke: uniq %d != queries %d", refCache.UniqueNodes(), want)
	}
}

// The batched access path must split owned and remote misses and produce the
// same lists and total charges as the reference, including duplicates.
func TestPartitionedBatchMatchesReference(t *testing.T) {
	g := backendTestGraph(12, 200, 600)
	be := NewMemBackend(g)

	refNet := NewNetworkOn(be)
	refCache := NewSharedCache()
	ref := NewClientShared(refNet, CostUniqueNodes, fastrand.New(1), refCache)

	const w = 3
	nets, caches, _ := partitionedFleet(be, w)
	c := NewClientShared(nets[0], CostUniqueNodes, fastrand.New(1), caches[0])

	vs := []int32{5, 70, 5, 199, 0, 64, 128, 64, 17, 100}
	out := make([][]int32, len(vs))
	refOut := make([][]int32, len(vs))
	c.NeighborsBatch(vs, out)
	ref.NeighborsBatch(vs, refOut)
	for i := range vs {
		if len(out[i]) != len(refOut[i]) {
			t.Fatalf("batch[%d]: length %d != %d", i, len(out[i]), len(refOut[i]))
		}
		for j := range refOut[i] {
			if out[i][j] != refOut[i][j] {
				t.Fatalf("batch[%d][%d] differs", i, j)
			}
		}
	}
	if c.Queries() != ref.Queries() {
		t.Fatalf("batch charges %d != reference %d", c.Queries(), ref.Queries())
	}
	// Owner-side meters: every unique id is owned by exactly one cache.
	var owned int64
	for _, sc := range caches {
		owned += sc.OwnedUnique()
	}
	if owned != ref.Queries() {
		t.Fatalf("fleet owned-unique %d != reference charges %d", owned, ref.Queries())
	}
	// A second identical batch must be fully warm: no new charges anywhere.
	c.NeighborsBatch(vs, out)
	if got := c.Queries(); got != ref.Queries() {
		t.Fatalf("warm batch charged: %d != %d", got, ref.Queries())
	}
}

// When owners are unreachable the client falls back to its local backend:
// lists stay correct, walks keep moving, and the fallback meter records the
// approximation.
func TestPartitionFallbackOnResolverError(t *testing.T) {
	g := backendTestGraph(13, 120, 300)
	be := NewMemBackend(g)
	nets, caches, res := partitionedFleet(be, 3)
	c := NewClientShared(nets[0], CostUniqueNodes, fastrand.New(1), caches[0])
	res.fail = true

	mem := NewMemBackend(g)
	for v := 0; v < 50; v++ {
		got := c.Neighbors(v)
		want := mem.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("fallback list for %d has length %d, want %d", v, len(got), len(want))
		}
	}
	if caches[0].RemoteFallbacks() == 0 {
		t.Fatal("no fallbacks recorded despite failing resolver")
	}
	// Batched path falls back too.
	vs := []int32{50, 51, 52, 53, 54, 55}
	out := make([][]int32, len(vs))
	c.NeighborsBatch(vs, out)
	for i, v := range vs {
		if len(out[i]) != len(mem.Neighbors(int(v))) {
			t.Fatalf("fallback batch list for %d wrong", v)
		}
	}
	// Fallback charges are local-first: still one charge per unique node on
	// this worker.
	if c.Queries() != 56 {
		t.Fatalf("fallback charged %d, want 56 (one per unique node)", c.Queries())
	}
}
