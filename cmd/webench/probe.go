package main

import (
	"runtime"
	"time"

	"repro/internal/graph"
)

// On a shared host, other tenants' memory traffic slows this kind of code by
// up to 40% for tens of seconds at a time, and every CPU-bound time metric
// moves with it. hostProbe measures that slowdown during a window, so that a
// CPU-bound workload's time metrics can be reported at a fixed reference
// speed. Once every probeEvery the workload pauses (between library jobs, or
// with the open loop drained and its schedule shifted), a GC cycle runs so no
// collector work overlaps, and a fixed memory-bound kernel owned by the
// benchmark is timed: random walks over a private copy of the graph's CSR
// arrays with a per-step counter in a 4 MiB table and a division per step,
// like the backward estimator's inner loop. The kernel never changes with the
// program under test, and nothing of the program runs beside it. Pauses are
// left out of the window's elapsed time and CPU time.
const (
	probeEvery = time.Second
	probeReps  = 3 // kernel runs per pause; the fastest counts
	// probeNominalMS is the kernel's time at the reference speed, roughly its
	// time on a quiet 2-CPU host. Any fixed value works: it only sets the
	// scale of the normalized metrics.
	probeNominalMS = 8.0
	probeWalks     = 20000
	probeTable     = 1 << 20
)

type hostProbe struct {
	off, adj, table []int32
	sink            float64
	next            time.Time
	ms              []float64 // the fastest kernel time of each pause
	pauseWall       time.Duration
	pauseCPU        time.Duration
}

// newHostProbe copies g's adjacency for the kernel. The first pause is due
// one probeEvery from now.
func newHostProbe(g *graph.Graph) *hostProbe {
	n := g.NumNodes()
	hp := &hostProbe{off: make([]int32, n+1), table: make([]int32, probeTable),
		next: time.Now().Add(probeEvery)}
	for v := 0; v < n; v++ {
		hp.adj = append(hp.adj, g.Neighbors(v)...)
		hp.off[v+1] = int32(len(hp.adj))
	}
	return hp
}

// due reports whether a pause is due; always false on a nil probe.
func (hp *hostProbe) due() bool { return hp != nil && !time.Now().Before(hp.next) }

// pause waits for quiesce (nil: the workload is already quiet), times the
// kernel while the caller holds the workload still, and returns how long the
// pause took, the wait included.
func (hp *hostProbe) pause(quiesce func()) time.Duration {
	t0 := time.Now()
	if quiesce != nil {
		quiesce()
	}
	u0 := readUsage()
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeReps; i++ {
		k0 := time.Now()
		hp.kernel()
		if d := time.Since(k0); d < best {
			best = d
		}
	}
	u1 := readUsage()
	hp.ms = append(hp.ms, ms(best))
	took := u1.at.Sub(t0)
	hp.pauseWall += took
	hp.pauseCPU += u1.cpu - u0.cpu
	hp.next = u1.at.Add(probeEvery)
	return took
}

func (hp *hostProbe) kernel() {
	x := uint64(0x9E3779B97F4A7C15)
	n := uint64(len(hp.off) - 1)
	acc := 0.0
	for w := 0; w < probeWalks; w++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int32(x % n)
		for s := int32(0); s < walkLen; s++ {
			lo, hi := hp.off[v], hp.off[v+1]
			if hi == lo {
				break
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v = hp.adj[lo+int32(x%uint64(hi-lo))]
			c := &hp.table[(v*walkLen+s)&(probeTable-1)]
			*c++
			acc += 1 / float64(hi-lo+*c)
		}
	}
	hp.sink += acc
}

// slowdown is the host's speed over the window relative to the reference:
// the kernel's median time over probeNominalMS, or 1 with no pause taken.
func (hp *hostProbe) slowdown() float64 {
	if hp == nil || len(hp.ms) == 0 {
		return 1
	}
	return percentile(hp.ms, 50) / probeNominalMS
}
