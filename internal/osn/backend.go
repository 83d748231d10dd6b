package osn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Backend is the ground-truth access layer a Network serves topology and
// stored attributes from. The paper's premise is that each access costs real
// wall-clock latency, so the access path is pluggable: an in-memory graph
// for unit-level work, a memory-mapped binary CSR for graphs too large to
// hold on the heap, and a simulated remote API that charges latency per
// round trip. Backends are immutable after construction and safe for
// concurrent readers; all restriction, caching, and cost accounting stays in
// the Network/Client layer above.
//
// NeighborsBatch is the batched counterpart of Neighbors: it resolves many
// nodes in what a remote platform would serve as one multi-get round trip,
// which is what turns the sampler's "queries saved" into wall-clock saved.
type Backend interface {
	// NumNodes returns |V|; node ids are dense in [0, NumNodes()).
	NumNodes() int
	// NumEdges returns |E|.
	NumEdges() int
	// Degree returns |N(v)| in the ground truth.
	Degree(v int) int
	// Neighbors returns the sorted ground-truth neighbor list of v. The
	// result aliases backend storage and must not be modified.
	Neighbors(v int) []int32
	// NeighborsBatch fills out[i] with the neighbor list of vs[i];
	// len(out) must equal len(vs).
	NeighborsBatch(vs []int32, out [][]int32)
	// Attr returns the backend-stored attribute value of v, if the backend
	// carries a table under that name (disk CSR files can embed per-node
	// float64 tables). Network-attached attributes take precedence.
	Attr(name string, v int) (float64, bool)
	// AttrNames lists the backend-stored attribute tables.
	AttrNames() []string
}

// GraphViewer is implemented by backends whose full topology is addressable
// as a *graph.Graph (the in-memory and mmap-CSR backends). The evaluation
// layer uses it to compute exact ground-truth aggregates; samplers must not.
type GraphViewer interface {
	GraphView() *graph.Graph
}

// MemBackend serves a heap-resident CSR graph: the seed behavior of the
// package, bit-for-bit. Zero per-call cost beyond the array indexing.
// Optional attribute tables (e.g. decoded from a CSR file) make it
// observationally identical to a DiskBackend over the same file.
type MemBackend struct {
	g         *graph.Graph
	attrs     map[string][]float64
	attrNames []string
}

// NewMemBackend wraps an in-memory graph as a Backend.
func NewMemBackend(g *graph.Graph) MemBackend { return MemBackend{g: g} }

// NewMemBackendWithAttrs wraps an in-memory graph plus per-node attribute
// tables (each of length NumNodes) as a Backend — the heap-decoded
// counterpart of a DiskBackend over a CSR file with embedded attributes.
// Attribute names are served in sorted order, matching the CSR file layout.
func NewMemBackendWithAttrs(g *graph.Graph, attrs map[string][]float64) MemBackend {
	names := make([]string, 0, len(attrs))
	for name, vals := range attrs {
		if len(vals) != g.NumNodes() {
			panic(fmt.Sprintf("osn: attribute %q has %d values for %d nodes", name, len(vals), g.NumNodes()))
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return MemBackend{g: g, attrs: attrs, attrNames: names}
}

// NumNodes implements Backend.
func (b MemBackend) NumNodes() int { return b.g.NumNodes() }

// NumEdges implements Backend.
func (b MemBackend) NumEdges() int { return b.g.NumEdges() }

// Degree implements Backend.
func (b MemBackend) Degree(v int) int { return b.g.Degree(v) }

// Neighbors implements Backend.
func (b MemBackend) Neighbors(v int) []int32 { return b.g.Neighbors(v) }

// NeighborsBatch implements Backend.
func (b MemBackend) NeighborsBatch(vs []int32, out [][]int32) {
	for i, v := range vs {
		out[i] = b.g.Neighbors(int(v))
	}
}

// Attr implements Backend, serving any attached attribute tables.
func (b MemBackend) Attr(name string, v int) (float64, bool) {
	vals, ok := b.attrs[name]
	if !ok {
		return 0, false
	}
	return vals[v], true
}

// AttrNames implements Backend.
func (b MemBackend) AttrNames() []string { return b.attrNames }

// GraphView implements GraphViewer.
func (b MemBackend) GraphView() *graph.Graph { return b.g }

// DiskBackend serves a binary CSR file opened with graph.OpenCSR: neighbor
// lists are slices into the memory-mapped file, so a million-node graph
// opens in O(1), samples without holding its edges on the heap, and pages
// in only the neighborhoods a crawl actually touches. Attribute tables
// embedded in the file are served through Attr.
type DiskBackend struct {
	m *graph.MappedCSR
}

// OpenDiskBackend opens the named binary CSR file as a backend. Close the
// returned mapping when done.
func OpenDiskBackend(path string) (DiskBackend, *graph.MappedCSR, error) {
	m, err := graph.OpenCSR(path)
	if err != nil {
		return DiskBackend{}, nil, err
	}
	return DiskBackend{m: m}, m, nil
}

// NumNodes implements Backend.
func (b DiskBackend) NumNodes() int { return b.m.NumNodes() }

// NumEdges implements Backend.
func (b DiskBackend) NumEdges() int { return b.m.NumEdges() }

// Degree implements Backend.
func (b DiskBackend) Degree(v int) int { return b.m.Degree(v) }

// Neighbors implements Backend.
func (b DiskBackend) Neighbors(v int) []int32 { return b.m.Neighbors(v) }

// NeighborsBatch implements Backend.
func (b DiskBackend) NeighborsBatch(vs []int32, out [][]int32) {
	for i, v := range vs {
		out[i] = b.m.Neighbors(int(v))
	}
}

// Attr implements Backend, serving tables embedded in the CSR file.
func (b DiskBackend) Attr(name string, v int) (float64, bool) {
	vals := b.m.Attr(name)
	if vals == nil {
		return 0, false
	}
	return vals[v], true
}

// AttrNames implements Backend.
func (b DiskBackend) AttrNames() []string { return b.m.AttrNames() }

// GraphView implements GraphViewer: the returned graph aliases the mapping.
func (b DiskBackend) GraphView() *graph.Graph { return b.m.Graph() }

// RemoteSim wraps a Backend and simulates the wide-area access cost of a
// real OSN API: every round trip sleeps Latency plus a deterministic jitter
// in [-Jitter, +Jitter], and batch requests are answered over Fanout
// concurrent connections — a k-node batch costs ~ceil(k/Fanout) round trips
// of wall-clock instead of k. This makes the paper's query-count savings
// directly measurable as wall-clock savings.
//
// Jitter is derived from an atomic call counter through a splitmix64
// finalizer, so it needs no locking and no shared RNG; it perturbs timing
// only, never data, so the determinism contract of the samplers is
// unaffected.
type RemoteSim struct {
	inner   Backend
	latency time.Duration
	jitter  time.Duration
	fanout  int
	seq     atomic.Uint64 // jitter stream position
	rtts    atomic.Int64  // round trips slept (batch = one per element, overlapped)
	slept   atomic.Int64  // total simulated latency charged, in nanoseconds
}

// DefaultFanout is the simulated connection-pool width used when
// NewRemoteSim is given fanout <= 0.
const DefaultFanout = 16

// NewRemoteSim wraps inner with simulated per-round-trip latency. jitter
// must be <= latency (it is clamped); fanout <= 0 selects DefaultFanout.
func NewRemoteSim(inner Backend, latency, jitter time.Duration, fanout int) *RemoteSim {
	if jitter > latency {
		jitter = latency
	}
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	return &RemoteSim{inner: inner, latency: latency, jitter: jitter, fanout: fanout}
}

// RoundTrips returns the number of simulated remote calls so far (each
// batch element counts as one call; batch calls overlap in wall-clock).
func (r *RemoteSim) RoundTrips() int64 { return r.rtts.Load() }

// SimulatedWait returns the total simulated latency charged so far, summed
// over every round trip (batch calls overlap in wall-clock, but each still
// charges its own latency here — this is the serial access cost the paper's
// query counts translate to). Because each round trip's jitter is a pure
// function of its position in the atomic jitter stream, the total is a
// deterministic function of the round-trip count alone, independent of
// goroutine scheduling.
func (r *RemoteSim) SimulatedWait() time.Duration {
	return time.Duration(r.slept.Load())
}

func (r *RemoteSim) sleep() {
	r.rtts.Add(1)
	d := r.latency
	if r.jitter > 0 {
		z := r.seq.Add(1) * 0x9E3779B97F4A7C15
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		// Uniform in [-jitter, +jitter].
		d += time.Duration(int64(z%uint64(2*r.jitter+1)) - int64(r.jitter))
	}
	if d > 0 {
		r.slept.Add(int64(d))
		time.Sleep(d)
	}
}

// NumNodes implements Backend (metadata is assumed locally known; no
// round trip).
func (r *RemoteSim) NumNodes() int { return r.inner.NumNodes() }

// NumEdges implements Backend.
func (r *RemoteSim) NumEdges() int { return r.inner.NumEdges() }

// Degree implements Backend; like a profile fetch it costs one round trip.
func (r *RemoteSim) Degree(v int) int {
	r.sleep()
	return r.inner.Degree(v)
}

// Neighbors implements Backend: one round trip per call.
func (r *RemoteSim) Neighbors(v int) []int32 {
	r.sleep()
	return r.inner.Neighbors(v)
}

// NeighborsBatch implements Backend: the batch is answered over fanout
// concurrent simulated connections, so its wall-clock cost is
// ~ceil(len(vs)/fanout) round trips. Results land in out by index, so the
// response is deterministic regardless of connection scheduling.
func (r *RemoteSim) NeighborsBatch(vs []int32, out [][]int32) {
	if len(vs) <= 1 || r.fanout == 1 {
		for i, v := range vs {
			out[i] = r.Neighbors(int(v))
		}
		return
	}
	workers := r.fanout
	if workers > len(vs) {
		workers = len(vs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(vs) {
					return
				}
				r.sleep()
				out[i] = r.inner.Neighbors(int(vs[i]))
			}
		}()
	}
	wg.Wait()
}

// Attr implements Backend: one round trip, like a profile-page fetch.
func (r *RemoteSim) Attr(name string, v int) (float64, bool) {
	r.sleep()
	return r.inner.Attr(name, v)
}

// AttrNames implements Backend.
func (r *RemoteSim) AttrNames() []string { return r.inner.AttrNames() }

// Inner returns the wrapped backend (for evaluation-layer access to the
// ground truth; samplers must not use it).
func (r *RemoteSim) Inner() Backend { return r.inner }

// ConcurrentBatch reports that batch requests overlap their round trips
// (Fanout simulated connections), so a k-node batch costs ~ceil(k/Fanout)
// round trips of wall-clock instead of k. Callers use this capability to
// decide whether batching accesses buys wall-clock — for a local backend a
// batch is just a loop, and batch-shaped execution is pure overhead.
func (r *RemoteSim) ConcurrentBatch() bool { return true }

// GraphView implements GraphViewer when the wrapped backend does.
func (r *RemoteSim) GraphView() *graph.Graph {
	if gv, ok := r.inner.(GraphViewer); ok {
		return gv.GraphView()
	}
	return nil
}
