package walknotwait_test

// Benchmarks for the pluggable access backends and the batched frontier
// prefetch (ISSUE 3): BenchmarkFrontierFetch measures wall-clock per
// frontier fill at simulated remote latencies, per-node vs batched —
// the direct "walk, not wait" payoff — and BenchmarkDiskMillionNode
// generates a million-node graph, serves it from a memory-mapped CSR file,
// and reports how much heap each loading strategy pays.
// scripts/bench_backends.sh records both in BENCH_backends.json.

import (
	"fmt"
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

// BenchmarkFrontierFetch fills a cold 64-node frontier through a RemoteSim
// backend at several per-round-trip latencies. The per-node variant pays
// one round trip per node; the batched variant issues the frontier as one
// prefetch, which the backend answers over concurrent simulated
// connections. At >= 10 ms latency the batch wins by roughly the fanout
// factor — queries saved become seconds saved.
func BenchmarkFrontierFetch(b *testing.B) {
	const frontierSize = 64
	g := gen.BarabasiAlbert(4000, 3, rand.New(rand.NewSource(3)))
	for _, latency := range []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond} {
		for _, batched := range []bool{false, true} {
			name := fmt.Sprintf("latency=%dms/pernode", latency.Milliseconds())
			if batched {
				name = fmt.Sprintf("latency=%dms/batched", latency.Milliseconds())
			}
			b.Run(name, func(b *testing.B) {
				net := osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), latency, 0, 0))
				frontier := make([]int32, frontierSize)
				out := make([][]int32, frontierSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A fresh client (cold caches) and a disjoint frontier
					// per op, so every fill pays its round trips.
					c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(int64(i)))
					base := (i * frontierSize) % (g.NumNodes() - frontierSize)
					for j := range frontier {
						frontier[j] = int32(base + j)
					}
					if batched {
						c.NeighborsBatch(frontier, out)
					} else {
						for _, v := range frontier {
							c.Neighbors(int(v))
						}
					}
				}
			})
		}
	}
}

// BenchmarkDiskMillionNode generates a 1M-node Barabási–Albert graph with
// the fastrand generator, writes it as binary CSR, and samples it through
// the memory-mapped disk backend. Reported metrics:
//
//	gen-s           seconds to generate the million-node fixture
//	heap-open-MB    heap growth from opening the CSR memory-mapped
//	heap-load-MB    heap growth from decoding the same file to the heap
//	queries/sample  unique-node cost per accepted sample
//
// heap-open-MB staying near zero while heap-load-MB carries the full edge
// payload is the "sample without holding edges on heap" acceptance
// criterion of ISSUE 3.
func BenchmarkDiskMillionNode(b *testing.B) {
	const (
		nodes   = 1_000_000
		m       = 3
		samples = 4
	)
	dir := b.TempDir()
	path := filepath.Join(dir, "million.csr")

	genStart := time.Now()
	g := gen.BarabasiAlbert(nodes, m, fastrand.New(9))
	genSecs := time.Since(genStart).Seconds()
	if err := graph.SaveCSR(path, g, nil); err != nil {
		b.Fatal(err)
	}
	g = nil

	heapMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	before := heapMB()
	loaded, _, err := graph.LoadCSR(path)
	if err != nil {
		b.Fatal(err)
	}
	heapLoad := heapMB() - before
	if loaded.NumNodes() != nodes {
		b.Fatalf("loaded %d nodes", loaded.NumNodes())
	}
	loaded = nil

	before = heapMB()
	be, mapped, err := osn.OpenDiskBackend(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()
	heapOpen := heapMB() - before

	net := osn.NewNetworkOn(be)
	b.ResetTimer()
	var queriesPerSample float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		c := osn.NewClient(net, osn.CostUniqueNodes, rng)
		s, err := core.NewSampler(c, core.Config{
			Design:      walk.SRW{},
			Start:       0,
			WalkLength:  15,
			UseCrawl:    true,
			CrawlHops:   1,
			UseWeighted: true,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.SampleN(samples)
		if err != nil {
			b.Fatal(err)
		}
		queriesPerSample = float64(c.TotalQueries()) / float64(res.Len())
	}
	b.ReportMetric(genSecs, "gen-s")
	b.ReportMetric(heapOpen, "heap-open-MB")
	b.ReportMetric(heapLoad, "heap-load-MB")
	b.ReportMetric(queriesPerSample, "queries/sample")
}

// BenchmarkBatchedStep measures the vectorized walker-frontier step kernel
// (ISSUE 8) against the scalar per-candidate loop on a simulated remote
// backend: 16 candidates' backward estimates, cold client per op so every
// neighbor access pays its round trip. The scalar loop serializes one
// round trip per walker step; the batched kernel advances all walkers in
// lockstep and resolves each design step's whole frontier as one batched
// request, which the backend answers over concurrent simulated
// connections. CI asserts batched >= 3x faster at 10 ms latency.
func BenchmarkBatchedStep(b *testing.B) {
	const (
		tSteps   = 9
		width    = 16
		baseReps = 2
		budget   = 2
	)
	d := walk.SRW{}
	g := gen.BarabasiAlbert(3000, 3, rand.New(rand.NewSource(5)))
	for _, latency := range []time.Duration{0, 10 * time.Millisecond} {
		net := osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), latency, 0, 64))
		// Forward-walk setup (shared by both variants, outside the timer):
		// record a WS-BW history and collect the candidate endpoints.
		setupC := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(1))
		hist := core.NewHistory()
		walkRNG := fastrand.New(2)
		nodes := make([]int, width)
		for i := range nodes {
			path := walk.Path(setupC, d, 0, tSteps, walkRNG)
			hist.RecordWalk(path)
			nodes[i] = path[len(path)-1]
		}
		for _, batched := range []bool{false, true} {
			name := fmt.Sprintf("latency=%dms/scalar", latency.Milliseconds())
			if batched {
				name = fmt.Sprintf("latency=%dms/batched", latency.Milliseconds())
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Fresh client per op: cold L1, so the op pays the
					// backend round trips the kernel is meant to batch.
					c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(int64(i)))
					e := &core.Estimator{Client: c, Design: d, Start: 0, Hist: hist}
					if batched {
						cands := make([]*core.BatchCand, width)
						for k, v := range nodes {
							cands[k] = &core.BatchCand{V: v, RNG: fastrand.New(int64(1000 + k))}
						}
						core.EstimateAdaptiveBatch(e, cands, tSteps, baseReps, budget)
						for _, cd := range cands {
							if cd.Err != nil {
								b.Fatal(cd.Err)
							}
						}
					} else {
						for k, v := range nodes {
							if _, err := core.EstimateAdaptive(e, v, tSteps, baseReps, budget, fastrand.New(int64(1000+k))); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			})
		}
	}
}
