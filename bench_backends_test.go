package walknotwait_test

// Wall-clock and heap contracts of the pluggable access backends: a batched
// frontier fill and the batched backward-step kernel must beat their
// per-node loops by a wide margin at 10 ms of simulated remote latency —
// the direct "walk, not wait" payoff — and the memory-mapped disk backend
// must open a million-node CSR without copying its edges to the heap.

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// TestFrontierFetchBatchedBeatsPerNode fills a cold 64-node frontier
// through a RemoteSim backend at 10 ms per round trip, once node by node
// and once as one batch, which the backend answers over concurrent
// simulated connections. The per-node fill pays 64 round trips; the batch
// must be at least 4× faster.
func TestFrontierFetchBatchedBeatsPerNode(t *testing.T) {
	const frontierSize = 64
	g := gen.BarabasiAlbert(4000, 3, rand.New(rand.NewSource(3)))
	net := osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 10*time.Millisecond, 0, 0))
	fill := func(batched bool, base int) time.Duration {
		// A fresh client (cold caches) and a disjoint frontier, so every
		// node pays its round trip.
		c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(int64(base)))
		frontier := make([]int32, frontierSize)
		for j := range frontier {
			frontier[j] = int32(base + j)
		}
		start := time.Now()
		if batched {
			c.NeighborsBatch(frontier, make([][]int32, frontierSize))
		} else {
			for _, v := range frontier {
				c.Neighbors(int(v))
			}
		}
		return time.Since(start)
	}
	perNode, batched := fill(false, 0), fill(true, frontierSize)
	ratio := float64(perNode) / float64(batched)
	t.Logf("64-node cold frontier at 10 ms: per-node %v, batched %v (%.1f×)", perNode, batched, ratio)
	if ratio < 4 {
		t.Fatalf("batched frontier fill only %.2f× faster than per-node (%v vs %v), want >= 4×", ratio, batched, perNode)
	}
}

// TestBatchedStepBeatsScalar runs 16 candidates' backward estimates over a
// RemoteSim backend at 10 ms per round trip, through the scalar
// per-candidate loop and through the batched kernel, each on a cold client.
// The scalar loop serializes one round trip per walker step; the batched
// kernel advances all walkers in lockstep and resolves each step's frontier
// as one request. It must be at least 3× faster.
func TestBatchedStepBeatsScalar(t *testing.T) {
	const (
		tSteps = 9
		width  = 16
	)
	d := walk.SRW{}
	g := gen.BarabasiAlbert(3000, 3, rand.New(rand.NewSource(5)))
	net := osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 10*time.Millisecond, 0, 64))
	// Forward-walk setup, shared by both runs, over the same graph without
	// latency: collect the candidate endpoints.
	setupC := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, fastrand.New(1))
	walkRNG := fastrand.New(2)
	nodes := make([]int, width)
	for i := range nodes {
		path := walk.Path(setupC, d, 0, tSteps, walkRNG)
		nodes[i] = path[len(path)-1]
	}
	run := func(batched bool) time.Duration {
		c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(3))
		e := &core.Estimator{Client: c, Design: d, Start: 0}
		start := time.Now()
		if batched {
			cands := make([]*core.BatchCand, width)
			for k, v := range nodes {
				cands[k] = &core.BatchCand{V: v, Seed: int64(1000 + k)}
			}
			core.EstimateAdaptiveBatch(e, cands, tSteps, 1, 0)
			for _, cd := range cands {
				if cd.Err != nil {
					t.Fatal(cd.Err)
				}
			}
		} else {
			for k, v := range nodes {
				if _, err := core.EstimateAdaptive(e, v, tSteps, 1, 0, int64(1000+k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	scalar, batched := run(false), run(true)
	ratio := float64(scalar) / float64(batched)
	t.Logf("16 candidates at 10 ms: scalar %v, batched %v (%.1f×)", scalar, batched, ratio)
	if ratio < 3 {
		t.Fatalf("batched step kernel only %.2f× faster than scalar (%v vs %v), want >= 3×", ratio, batched, scalar)
	}
}

// TestDiskBackendOpensOffHeap writes a million-node path graph as binary
// CSR and compares the heap growth of decoding it to the heap against
// opening it memory-mapped: the decode carries the whole edge payload
// (>= 10 MB), the mapped open at most 1 MB.
func TestDiskBackendOpensOffHeap(t *testing.T) {
	const nodes = 1_000_000
	path := filepath.Join(t.TempDir(), "million.csr")
	if err := graph.SaveCSR(path, gen.Path(nodes), nil); err != nil {
		t.Fatal(err)
	}
	heapMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	before := heapMB()
	loaded, _, err := graph.LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	heapLoad := heapMB() - before
	if loaded.NumNodes() != nodes {
		t.Fatalf("loaded %d nodes, want %d", loaded.NumNodes(), nodes)
	}

	before = heapMB()
	be, mapped, err := osn.OpenDiskBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	heapOpen := heapMB() - before
	if got := be.Neighbors(nodes / 2); len(got) != 2 || got[0] != nodes/2-1 || got[1] != nodes/2+1 {
		t.Fatalf("mapped Neighbors(%d) = %v", nodes/2, got)
	}
	t.Logf("1M-node CSR: heap load %.1f MB, mapped open %.4f MB", heapLoad, heapOpen)
	if heapOpen > 1 {
		t.Fatalf("mapped open grew the heap by %.2f MB, want <= 1 MB (edges on heap?)", heapOpen)
	}
	if heapLoad < 10 {
		t.Fatalf("heap load grew the heap by only %.2f MB, want >= 10 MB (fixture shrunk?)", heapLoad)
	}
}
