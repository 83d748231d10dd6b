// Package serve turns the one-shot WALK-ESTIMATE machinery into a resident
// sampling service: a daemon loads a graph once (through any osn.Backend —
// in-memory, memory-mapped disk CSR, or simulated remote API), keeps one
// long-lived shared neighbor cache and reusable crawl tables hot across all
// requests, and answers sampling jobs submitted over HTTP.
//
// The package splits into three layers:
//
//   - Engine: the shared, job-independent state — the network, the fleet-wide
//     osn.SharedCache every job's clients attach to, and a memo of crawl
//     tables keyed by (design, start, hops). This is what makes the service
//     worth running: the first job pays the cache warm-up and the crawl, and
//     every later job rides on it.
//   - Manager: job lifecycle — admission control (a bounded queue), a fixed
//     set of runner goroutines, a global estimation-worker budget that
//     per-job worker counts are carved from, cancellation, and metrics.
//   - HTTP layer (http.go): POST /v1/jobs, GET /v1/jobs/{id} (+ NDJSON
//     streaming of accepted samples as they are produced), DELETE for
//     cancellation, /healthz, and a Prometheus-text /metrics endpoint.
//
// Determinism contract: a job's sample sequence is a deterministic function
// of its normalized spec — (type, design, seed, walk length, crawl
// parameters, heuristics) — and of nothing else. Workers, cache warmth,
// crawl-table reuse, and concurrent traffic change only query charges and
// wall-clock, never the data any request observes, because the shared
// cache stores ground-truth (or deterministically restricted) neighbor
// lists and crawl tables are pure functions of the graph. Two identical
// submissions therefore return identical sample sequences, warm or cold.
// Cancellation voids only the cancelled job: it errors out, and completed
// jobs never observe a cancelled context (see core.SampleNParallelCtx).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Engine is the job-independent shared state of a sampling service: the
// network, the long-lived shared neighbor cache all job clients attach to,
// and the crawl-table memo. Safe for concurrent use.
type Engine struct {
	net   *osn.Network
	cache *osn.SharedCache
	mode  osn.CostMode
	sim   *osn.RemoteSim // non-nil when the backend simulates remote latency
	// res and faults are discovered by walking the backend chain: the
	// resilience middleware (breaker state, retry meters for /metrics and
	// readiness) and the fault injector (fault meters, outage control).
	res    *osn.ResilientBackend
	faults *osn.FaultSim

	// defaultStart is the max-degree node (the paper's usual seed choice),
	// -1 when the backend exposes no ground-truth view to compute it from.
	defaultStart int
	// defaultWalkLen is the paper's 2·D̄+1 with D̄ estimated once at load.
	defaultWalkLen int
	// graphID fingerprints the loaded graph (|V|, |E|, a strided degree
	// probe); the result cache scopes its digests with it so results from
	// different graphs can never be confused.
	graphID string

	mu     sync.Mutex
	crawls map[crawlKey]*core.CrawlTable
}

type crawlKey struct {
	design string
	start  int
	hops   int
}

// NewEngine wraps a loaded network as service state. The graph scan for the
// default start node and the diameter estimate happen once, here, against
// the ground-truth view (never through the metered or simulated path).
func NewEngine(net *osn.Network) *Engine {
	e := &Engine{
		net:            net,
		cache:          osn.NewSharedCache(),
		mode:           osn.CostUniqueNodes,
		defaultStart:   -1,
		defaultWalkLen: 15, // the paper's Google Plus setting, as a fallback
		crawls:         make(map[crawlKey]*core.CrawlTable),
	}
	// Walk the wrapper chain (ResilientBackend over FaultSim over RemoteSim
	// over mem/disk, any subset present) so each layer's meters are
	// addressable regardless of stacking order.
	for be := net.Backend(); be != nil; {
		switch t := be.(type) {
		case *osn.RemoteSim:
			e.sim = t
		case *osn.ResilientBackend:
			e.res = t
		case *osn.FaultSim:
			e.faults = t
		}
		u, ok := be.(interface{ Inner() osn.Backend })
		if !ok {
			break
		}
		be = u.Inner()
	}
	if g := net.Graph(); g != nil && g.NumNodes() > 0 {
		best := 0
		for v := 1; v < g.NumNodes(); v++ {
			if g.Degree(v) > g.Degree(best) {
				best = v
			}
		}
		e.defaultStart = best
		// Fixed internal seed: the default walk length must be one stable
		// number per loaded graph, or the determinism contract would leak
		// daemon state into job specs.
		e.defaultWalkLen = 2*g.EstimateDiameter(4, rand.New(rand.NewSource(1))) + 1
	}
	e.graphID = fingerprintGraph(net)
	return e
}

// fingerprintGraph derives a stable graph id from the loaded network: |V|,
// |E|, and (when a ground-truth view exists) up to 64 strided degree probes.
// Deterministic per graph, computed once at load against the raw view —
// never through the metered or simulated path.
func fingerprintGraph(net *osn.Network) string {
	h := sha256.New()
	fmt.Fprintf(h, "v=%d|e=%d", net.NumNodes(), net.Backend().NumEdges())
	if g := net.Graph(); g != nil && g.NumNodes() > 0 {
		n := g.NumNodes()
		stride := n/64 + 1
		for v := 0; v < n; v += stride {
			fmt.Fprintf(h, "|%d:%d", v, g.Degree(v))
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// GraphID returns the engine's graph fingerprint (the result-cache scope).
func (e *Engine) GraphID() string { return e.graphID }

// Network returns the served network.
func (e *Engine) Network() *osn.Network { return e.net }

// NumNodes returns the loaded graph's |V|.
func (e *Engine) NumNodes() int { return e.net.NumNodes() }

// Sim returns the RemoteSim backend when the service fronts one, else nil
// (used by /metrics to surface round-trip meters).
func (e *Engine) Sim() *osn.RemoteSim { return e.sim }

// Resilient returns the resilience middleware when the backend chain has
// one, else nil (breaker state for /readyz, retry meters for /metrics).
func (e *Engine) Resilient() *osn.ResilientBackend { return e.res }

// Faults returns the fault injector when the backend chain has one, else
// nil (fault meters for /metrics; outage control in chaos tests).
func (e *Engine) Faults() *osn.FaultSim { return e.faults }

// CacheStats returns the fleet-wide cache meters as an atomic snapshot.
func (e *Engine) CacheStats() osn.CacheStats { return e.cache.Stats() }

// Cache returns the engine's long-lived shared neighbor cache, for fleet
// wiring (partition installation, owner-side shard resolution). Job code
// should keep going through NewClient.
func (e *Engine) Cache() *osn.SharedCache { return e.cache }

// NewClient returns a metered client attached to the service's shared cache;
// each job (and each of its forked estimation workers) charges the fleet
// meter once per unique node, and cache fills persist across jobs.
func (e *Engine) NewClient(rng fastrand.RNG) *osn.Client {
	return osn.NewClientShared(e.net, e.mode, rng, e.cache)
}

// NewClientCtx is NewClient with the job context bound: fallible backend
// accesses run under ctx, so per-job deadlines cut resilience waits short
// and retry-policy exhaustion cancels the job with its typed cause.
func (e *Engine) NewClientCtx(ctx context.Context, rng fastrand.RNG) *osn.Client {
	c := e.NewClient(rng)
	c.BindContext(ctx)
	return c
}

// crawlTable returns the memoized crawl table for (design, start, hops),
// building it through c on first use. The table is a deterministic function
// of the graph and the key, so reuse is invisible to job sample sequences;
// only the build's query charges are saved. If two jobs race the same key
// both build (charging the shared meter once per unique node regardless)
// and the first store wins. A build degraded by a backend failure (failed
// fetches shrink the crawled ball) is never memoized — the partial table
// must not poison later jobs' determinism — and fails with the typed cause.
func (e *Engine) crawlTable(ctx context.Context, c *osn.Client, d walk.Design, start, hops int) (*core.CrawlTable, error) {
	key := crawlKey{design: d.Name(), start: start, hops: hops}
	e.mu.Lock()
	ct, ok := e.crawls[key]
	e.mu.Unlock()
	if ok {
		return ct, nil
	}
	ct, err := core.BuildCrawlTable(c, d, start, hops)
	if err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	e.mu.Lock()
	if prev, ok := e.crawls[key]; ok {
		ct = prev
	} else {
		e.crawls[key] = ct
	}
	e.mu.Unlock()
	return ct, nil
}
