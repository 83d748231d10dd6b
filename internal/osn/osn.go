// Package osn simulates the restrictive web interface of an online social
// network, which is the access model the whole paper builds on (Section 2.1):
// a third party can only issue local-neighborhood queries — give a node,
// receive its neighbor list — and pays a query cost for each node accessed.
//
// The package separates the hidden ground truth (Network: full topology plus
// per-node attributes) from the metered third-party view (Client: cached
// neighbor queries, query-cost accounting, simulated rate limiting, and the
// neighbor-list access restrictions of Section 6.3.1).
package osn

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/fastrand"
	"repro/internal/graph"
)

// Network is the server side of the simulated social network: the complete
// topology (served through a pluggable Backend — in-memory, disk-backed
// CSR, or simulated remote API) and node attributes, which samplers must
// not touch directly. Construct with NewNetwork or NewNetworkOn; access
// through a Client.
type Network struct {
	be Backend
	// truth is the innermost backend (RemoteSim wrappers unwrapped) used by
	// evaluation-only reads like TrueMean, which must pay neither simulated
	// latency nor round-trip accounting.
	truth       Backend
	g           *graph.Graph // ground-truth view for evaluation; nil when the backend has none
	attrs       map[string][]float64
	attrFns     map[string]func(int) float64
	attrMu      sync.Mutex // guards attrCache and meanCache (clients may share a Network across goroutines)
	attrCache   map[string]map[int]float64
	meanCache   map[string]float64
	restriction Restriction
	rateLimit   *RateLimit
	// concBatch records whether any backend layer answers batch requests
	// over concurrent connections (RemoteSim's fanout), i.e. whether
	// batch-shaped access patterns actually save wall-clock.
	concBatch bool
}

// Option configures a Network.
type Option func(*Network)

// WithAttribute attaches a numeric per-node attribute (e.g. star rating,
// self-description word count). values must have length NumNodes().
func WithAttribute(name string, values []float64) Option {
	return func(n *Network) { n.attrs[name] = values }
}

// WithAttrFunc attaches a lazily-computed per-node attribute (e.g. local
// clustering coefficient or mean shortest-path length, which are too
// expensive to precompute for every node of a large graph). Values are
// memoized per node. TrueMean is unavailable for function attributes — the
// dataset layer records ground truth for those separately.
func WithAttrFunc(name string, fn func(node int) float64) Option {
	return func(n *Network) { n.attrFns[name] = fn }
}

// WithRestriction installs a neighbor-list access restriction (§6.3.1).
func WithRestriction(r Restriction) Option {
	return func(n *Network) { n.restriction = r }
}

// WithRateLimit installs a simulated query rate limit (e.g. Twitter's 15
// requests per 15 minutes).
func WithRateLimit(perWindow int, window time.Duration) Option {
	return func(n *Network) { n.rateLimit = &RateLimit{PerWindow: perWindow, Window: window} }
}

// NewNetwork wraps an in-memory graph as a simulated online social network.
// The behavior is bit-for-bit that of the pre-backend implementation: it is
// exactly NewNetworkOn(NewMemBackend(g), opts...).
func NewNetwork(g *graph.Graph, opts ...Option) *Network {
	return NewNetworkOn(NewMemBackend(g), opts...)
}

// NewNetworkOn wraps any access backend — in-memory, memory-mapped CSR, or
// simulated remote API — as a simulated online social network.
func NewNetworkOn(be Backend, opts ...Option) *Network {
	truth := be
	concBatch := false
	for {
		if cb, ok := truth.(interface{ ConcurrentBatch() bool }); ok && cb.ConcurrentBatch() {
			concBatch = true
		}
		u, ok := truth.(interface{ Inner() Backend })
		if !ok {
			break
		}
		truth = u.Inner()
	}
	n := &Network{
		be:        be,
		truth:     truth,
		concBatch: concBatch,
		attrs:     make(map[string][]float64),
		attrFns:   make(map[string]func(int) float64),
		attrCache: make(map[string]map[int]float64),
		meanCache: make(map[string]float64),
	}
	if gv, ok := be.(GraphViewer); ok {
		n.g = gv.GraphView()
	}
	for _, o := range opts {
		o(n)
	}
	for name, vals := range n.attrs {
		if len(vals) != be.NumNodes() {
			panic(fmt.Sprintf("osn: attribute %q has %d values for %d nodes", name, len(vals), be.NumNodes()))
		}
	}
	return n
}

// Graph exposes the underlying ground-truth topology for *evaluation only*
// (computing exact aggregates to measure estimator error). Samplers must use
// a Client. It is nil for backends without an addressable topology view
// (e.g. a RemoteSim over an opaque service).
func (n *Network) Graph() *graph.Graph { return n.g }

// Backend exposes the access backend the network serves topology from, for
// construction-time plumbing (wrapping, diagnostics). Samplers must use a
// Client.
func (n *Network) Backend() Backend { return n.be }

// NumNodes returns the hidden |V| (evaluation only).
func (n *Network) NumNodes() int { return n.be.NumNodes() }

// TrueMean returns the exact population mean of an attribute, or of degree
// when name is "degree" and the attribute table has no explicit entry.
// This is the ground truth for the paper's relative-error measure.
// The sum is memoized per attribute — the eval layer calls TrueMean per
// figure point, and attribute tables are immutable once attached.
func (n *Network) TrueMean(name string) (float64, error) {
	n.attrMu.Lock()
	mean, hit := n.meanCache[name]
	n.attrMu.Unlock()
	if hit {
		return mean, nil
	}
	vals, ok := n.attrs[name]
	if !ok {
		// Evaluation-only reads go through the innermost backend: a
		// RemoteSim must charge samplers for access, never the ground-truth
		// bookkeeping (its latency and round-trip meters would otherwise be
		// corrupted by every figure point).
		if _, isBackend := probeAttr(n.truth, name); isBackend {
			// Backend-stored table (e.g. embedded in a CSR file): sum once
			// and memoize like any other attribute.
			sum := 0.0
			for v := 0; v < n.truth.NumNodes(); v++ {
				val, _ := n.truth.Attr(name, v)
				sum += val
			}
			mean = sum / float64(n.truth.NumNodes())
			n.attrMu.Lock()
			n.meanCache[name] = mean
			n.attrMu.Unlock()
			return mean, nil
		}
		if name == AttrDegree {
			if n.truth.NumNodes() == 0 {
				return 0, nil // match graph.AvgDegree's empty-graph contract
			}
			return 2 * float64(n.truth.NumEdges()) / float64(n.truth.NumNodes()), nil
		}
		return 0, fmt.Errorf("osn: unknown attribute %q", name)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(len(vals))
	n.attrMu.Lock()
	n.meanCache[name] = mean
	n.attrMu.Unlock()
	return mean, nil
}

// probeAttr reports whether the backend stores a table under name (safe on
// empty graphs, where no per-node probe is possible).
func probeAttr(be Backend, name string) (float64, bool) {
	if be.NumNodes() == 0 {
		return 0, false
	}
	return be.Attr(name, 0)
}

// AttrNames lists the attributes attached to the network (table, function,
// and backend-stored attributes alike), in unspecified order.
func (n *Network) AttrNames() []string {
	names := make([]string, 0, len(n.attrs)+len(n.attrFns))
	for name := range n.attrs {
		names = append(names, name)
	}
	for name := range n.attrFns {
		names = append(names, name)
	}
	for _, name := range n.be.AttrNames() {
		if _, dup := n.attrs[name]; dup {
			continue
		}
		if _, dup := n.attrFns[name]; dup {
			continue
		}
		names = append(names, name)
	}
	return names
}

// attrValue resolves an attribute for one node, consulting the attached
// table first, then the memoized function attributes, then the backend's
// stored tables. Safe for concurrent use.
func (n *Network) attrValue(name string, v int) (float64, bool) {
	if vals, ok := n.attrs[name]; ok {
		return vals[v], true
	}
	fn, ok := n.attrFns[name]
	if !ok {
		return n.be.Attr(name, v)
	}
	n.attrMu.Lock()
	cache := n.attrCache[name]
	if cache == nil {
		cache = make(map[int]float64)
		n.attrCache[name] = cache
	}
	val, hit := cache[v]
	n.attrMu.Unlock()
	if hit {
		return val, true
	}
	val = fn(v)
	n.attrMu.Lock()
	cache[v] = val
	n.attrMu.Unlock()
	return val, true
}

// AttrDegree is the pseudo-attribute name for node degree; every network
// supports it implicitly.
const AttrDegree = "degree"

// RateLimit describes a query budget per time window.
type RateLimit struct {
	PerWindow int
	Window    time.Duration
}

// CostMode selects how a Client charges queries.
type CostMode int

const (
	// CostUniqueNodes charges one query per distinct node whose neighbor list
	// is requested (repeat lookups hit the cache). This is the paper's
	// "number of nodes it has to access" and the default.
	CostUniqueNodes CostMode = iota
)

// l1Page geometry: 256 ids per page — the page header (presence and
// queried bitsets) is two cache lines and the neighbor-list headers are
// 6 KiB, so a client's L1 memory is bounded by the id ranges its walks
// actually touch (one page per 256-id range visited) plus an 8-byte
// directory pointer per 256 ids, instead of 24 bytes per graph node.
const (
	l1Shift = 8
	l1Size  = 1 << l1Shift
	l1Mask  = l1Size - 1
	l1Words = l1Size / 64
)

// l1Page holds one 256-id range of a private client's L1: the presence
// bitset gating the cached neighbor-list headers.
type l1Page struct {
	present [l1Words]uint64
	nbrs    [l1Size][]int32
}

// acctPage holds one 256-id range of the per-client unique-node accounting
// bitset (private clients only — under a SharedCache the shared accounting
// is authoritative). It is a separate, two-cache-line page so
// accounting-only touches (attribute reads, uncacheable views) never pay
// for an l1Page's 6 KiB of neighbor-list headers.
type acctPage struct {
	queried [l1Words]uint64
}

// Client is a metered third-party view of a Network. A Client is not safe
// for concurrent use — each goroutine must own its own — but Clients forked
// from one another (Fork, NewClientShared) may run concurrently: they
// coordinate through a SharedCache, so distinct workers stop paying for
// duplicate cache fills while each keeps its own cost meter.
//
// Node ids are dense in [0, NumNodes()), so a private client's L1 cache and
// its unique-node accounting are paged slices over the id space: a directory
// of fixed-size pages allocated on first touch, making the warm Neighbors
// path one directory index, one bit test and one array load with no hashing,
// branching on the meter, or allocation — while a client on a multi-million
// node graph costs kilobytes of directory, not O(24n) bytes of headers. A
// client attached to a SharedCache has neither: it reads the shared pages
// directly (wait-free) and charges against the shared accounting.
type Client struct {
	net  *Network
	rng  fastrand.RNG
	mode CostMode
	// l1 is the private client's paged L1 neighbor cache directory; pages
	// are allocated the first time an id in their range is cached. nil when
	// shared is set (the shared cache is then the only cache tier).
	l1 []*l1Page
	// acct is the paged unique-node accounting directory; nil when shared
	// is set (the shared cache's accounting is then authoritative).
	acct     []*acctPage
	nQueried int
	// shared, when non-nil, is the cross-client neighbor cache and global
	// unique-node accounting this client participates in.
	shared   *SharedCache
	queries  int64
	calls    int64
	waited   time.Duration
	inWindow int
	// cacheable is the precomputed condition under which neighbor lists may
	// be cached: no restriction, or a deterministic one (type 2/3).
	cacheable bool
	// fastPath records that the network has no restriction and no rate
	// limit: misses cache the ground-truth list as-is (no restriction
	// branch) and the meter needs no rate-limit branch.
	fastPath bool
	// fb is the backend's fallible access surface, when it has one
	// (FaultSim, ResilientBackend): cold fetches then go through it under
	// ctx, so a backend failure is reported — never cached, never charged —
	// instead of silently degraded. nil for infallible backends, leaving
	// the classic path untouched.
	fb FallibleBackend
	// ctx is the context fallible fetches run under (BindContext); defaults
	// to context.Background(). Warm-path reads never consult it.
	ctx context.Context
	// lastErr is the first backend failure this client observed (Err).
	lastErr     error
	failedFetch int64
	// Reusable scratch buffers for the batched access path (NeighborsBatch,
	// Prefetch), so steady-state batches allocate nothing on the client.
	batchPos    []int32   // positions in vs still unresolved after the cache pass
	batchIDs    []int32   // deduplicated miss ids
	batchLists  [][]int32 // lists aligned with batchIDs
	batchFirst  []bool    // first-access flags aligned with batchIDs
	batchFailed []bool    // per-element failure flags for the fallible batch path
	prefetchBuf [][]int32 // Prefetch's throwaway out buffer
	// Partitioned-fleet scratch (cluster mode only; see partition.go).
	remoteIDs   []int32   // non-owned miss ids routed to shard owners
	remoteLists [][]int32 // owner-resolved lists aligned with remoteIDs
	remoteFirst []bool    // owner fleet-first verdicts aligned with remoteIDs
}

func newClient(net *Network, mode CostMode, rng fastrand.RNG, sc *SharedCache) *Client {
	n := net.be.NumNodes()
	fb, _ := net.be.(FallibleBackend)
	c := &Client{
		net:       net,
		rng:       rng,
		mode:      mode,
		shared:    sc,
		fb:        fb,
		ctx:       context.Background(),
		cacheable: net.restriction == nil || net.restriction.Deterministic(),
		fastPath:  net.restriction == nil && net.rateLimit == nil,
	}
	if sc == nil {
		c.l1 = make([]*l1Page, (n+l1Mask)>>l1Shift)
		c.acct = make([]*acctPage, (n+l1Mask)>>l1Shift)
	}
	return c
}

// NewClient creates a client with its own cache and cost counters. rng
// drives restriction sampling (type-1 restrictions return fresh random
// subsets per call) and must not be nil when restrictions are installed.
func NewClient(net *Network, mode CostMode, rng fastrand.RNG) *Client {
	return newClient(net, mode, rng, nil)
}

// NewClientShared creates a client attached to a shared neighbor cache.
// All clients attached to the same SharedCache collectively charge each
// unique node once (CostUniqueNodes) and share cache fills; each client
// still meters the charges it incurred itself. sc must not be nil.
func NewClientShared(net *Network, mode CostMode, rng fastrand.RNG, sc *SharedCache) *Client {
	return newClient(net, mode, rng, sc)
}

// Fork returns a sibling client over the same network that shares this
// client's neighbor cache and unique-node accounting, for use by another
// goroutine. If the client is not yet attached to a SharedCache, its private
// cache and accounting are promoted into a fresh one first (so nothing
// already paid for is charged again) and the client then reads the shared
// cache like its siblings; the promotion must happen before any concurrent
// use. rng drives the sibling's restriction sampling.
func (c *Client) Fork(rng fastrand.RNG) *Client {
	if c.shared == nil {
		sc := NewSharedCache()
		for pi, pg := range c.l1 {
			if pg == nil {
				continue
			}
			for w, word := range pg.present {
				for ; word != 0; word &= word - 1 {
					o := w<<6 + bits.TrailingZeros64(word)
					sc.store(int32(pi<<l1Shift+o), pg.nbrs[o])
				}
			}
		}
		for _, v := range c.KnownNodes() {
			sc.markQueried(int32(v))
		}
		sc.queries.Store(c.queries)
		sc.calls.Store(c.calls)
		c.shared = sc
		c.l1, c.acct = nil, nil
	}
	nc := NewClientShared(c.net, c.mode, rng, c.shared)
	nc.ctx = c.ctx // workers inherit the job's deadline and failure-cancel hook
	return nc
}

// Shared returns the client's shared cache, or nil for a private client.
func (c *Client) Shared() *SharedCache { return c.shared }

// BindContext binds the context the client's fallible backend accesses run
// under: per-job deadlines cut resilience-layer waits short, and a
// WithFailureCancel hook in ctx turns an exhausted retry policy into prompt
// job cancellation with the typed error as the cause. A nil ctx restores
// context.Background(). No-op wiring for infallible backends; the warm read
// path never consults the context either way.
func (c *Client) BindContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
}

// Err returns the first backend failure this client observed (after the
// resilience layer, if any, gave up), or nil. Failed accesses are never
// cached or charged; samplers see them as empty neighbor lists while the
// typed error cancels the bound context's job.
func (c *Client) Err() error { return c.lastErr }

// FailedFetches returns how many cold fetches failed (post-retry).
func (c *Client) FailedFetches() int64 { return c.failedFetch }

// noteFetchError records a failed cold fetch.
func (c *Client) noteFetchError(err error) {
	c.failedFetch++
	if c.lastErr == nil {
		c.lastErr = err
	}
}

// Mode returns the client's cost-charging mode.
func (c *Client) Mode() CostMode { return c.mode }

// SymmetricView reports whether neighbor lists are served unrestricted, in
// which case the view inherits the graph's edge symmetry: v ∈ N(u) iff
// u ∈ N(v). Transition designs use this to take degree-only probability
// fast paths along edges already known to exist.
func (c *Client) SymmetricView() bool { return c.net.restriction == nil }

// ConcurrentBatch reports whether some layer of the backend stack answers
// batch requests over concurrent connections (a RemoteSim anywhere in the
// wrapper chain), so batching many accesses into one request saves
// wall-clock. Local backends (mem, disk CSR) answer batches as plain
// loops; callers that restructure work into batch shape purely for round
// trips should skip the restructuring when this is false.
func (c *Client) ConcurrentBatch() bool { return c.net.concBatch }

// Neighbors issues the local-neighborhood query for v and returns its
// (possibly restricted) neighbor list. The result must not be modified.
// The warm path — v already cached — is a page-directory index, a bit test
// and an array load: in the private L1, or in the shared cache's pages (with
// atomic loads) for an attached client.
func (c *Client) Neighbors(v int) []int32 {
	if c.shared == nil {
		if pg := c.l1[uint(v)>>l1Shift]; pg != nil {
			o := uint(v) & l1Mask
			if pg.present[o>>6]&(1<<(o&63)) != 0 {
				return pg.nbrs[o]
			}
		}
	} else if c.cacheable {
		// SharedCache.lookup, spelled out: it is over the inlining budget,
		// and the call costs ~2 ns of a ~4 ns warm read.
		if pg := c.shared.page(int32(v)); pg != nil {
			o := uint(v) & l1Mask
			if pg.present[o>>6].Load()&(1<<(o&63)) != 0 {
				return pg.nbrs[o] // already paid for globally
			}
		}
	}
	return c.neighborsMiss(v)
}

// cached is the warm-path probe as a helper for the batched access layer:
// the cached list of v and whether it is present, in whichever cache tier
// the client reads.
func (c *Client) cached(v int32) ([]int32, bool) {
	if c.shared != nil {
		return c.shared.lookup(v)
	}
	return c.l1Lookup(v)
}

// l1Lookup is cached for a private client, small enough to inline.
func (c *Client) l1Lookup(v int32) ([]int32, bool) {
	if pg := c.l1[uint32(v)>>l1Shift]; pg != nil {
		o := uint32(v) & l1Mask
		if pg.present[o>>6]&(1<<(o&63)) != 0 {
			return pg.nbrs[o], true
		}
	}
	return nil, false
}

// neighborsMiss is the cold path of Neighbors: fall through to the network
// (or, in a partitioned fleet, to the shard owner), apply any restriction,
// cache, and charge.
func (c *Client) neighborsMiss(v int) []int32 {
	vv := int32(v)
	if c.shared != nil && c.fastPath {
		// Fleet-partitioned cache: a miss on a shard another worker owns is
		// resolved through the owner (one atomic load on the cold path; the
		// warm path is untouched). Unrestricted views only.
		if p := c.shared.part.Load(); p != nil && p.Resolver != nil && !p.Owns(vv) {
			return c.neighborsRemote(vv, p)
		}
	}
	var nbr []int32
	if c.fb != nil {
		var err error
		nbr, err = c.fb.NeighborsCtx(c.ctx, v)
		if err != nil {
			// A failed fetch is never cached (a degraded answer must not
			// poison the L1 or a daemon's shared cache) and never charged
			// (the crawler got nothing for it). The walk kernel sees an
			// empty list — a stranded node — while the typed error cancels
			// the bound job context, so the run fails promptly above.
			c.noteFetchError(err)
			return nil
		}
	} else {
		nbr = c.net.be.Neighbors(v)
	}
	if c.fastPath {
		// Unrestricted view: the ground-truth list is the answer and is
		// always cacheable.
		nbr = c.cache(vv, nbr)
		c.charge(vv)
		return nbr
	}
	if c.net.restriction != nil {
		nbr = c.net.restriction.Apply(nbr, v, c.rng)
	}
	if c.cacheable {
		nbr = c.cache(vv, nbr)
	}
	c.charge(vv)
	return nbr
}

// cache installs nbr as v's cached list — in the shared cache when one is
// attached, returning the winner of a concurrent fill, in the private L1
// otherwise — and returns the list every later read of v will see.
func (c *Client) cache(v int32, nbr []int32) []int32 {
	if c.shared != nil {
		return c.shared.store(v, nbr)
	}
	pi := uint32(v) >> l1Shift
	pg := c.l1[pi]
	if pg == nil {
		pg = new(l1Page)
		c.l1[pi] = pg
	}
	o := uint32(v) & l1Mask
	pg.nbrs[o] = nbr
	pg.present[o>>6] |= 1 << (o & 63)
	return nbr
}

// Degree returns the number of neighbors visible through the interface
// (which under truncation restrictions may be less than the true degree).
func (c *Client) Degree(v int) int { return len(c.Neighbors(v)) }

// Attr returns the named attribute of v, or the visible degree for
// AttrDegree. Accessing an attribute of a node not yet queried counts as a
// node access (you must fetch the profile page).
func (c *Client) Attr(name string, v int) (float64, error) {
	if name == AttrDegree {
		if _, ok := c.net.attrs[AttrDegree]; !ok {
			return float64(c.Degree(v)), nil
		}
	}
	val, ok := c.net.attrValue(name, v)
	if !ok {
		return 0, fmt.Errorf("osn: unknown attribute %q", name)
	}
	if !c.wasQueried(int32(v)) {
		c.charge(int32(v))
	}
	return val, nil
}

// EdgeVisible performs the paper's bidirectional check (§6.3.1): the edge
// {u,v} is traversable only if v ∈ N(u) and u ∈ N(v) under the restricted
// interface. Both lookups are charged normally.
func (c *Client) EdgeVisible(u, v int) bool {
	return contains(c.Neighbors(u), int32(v)) && contains(c.Neighbors(v), int32(u))
}

func contains(xs []int32, x int32) bool {
	for _, e := range xs {
		if e == x {
			return true
		}
	}
	return false
}

func (c *Client) charge(v int32) {
	c.calls++
	if c.shared != nil {
		c.shared.calls.Add(1)
	}
	if c.markQueried(v) {
		c.queries++
		if c.shared != nil {
			c.shared.queries.Add(1)
		}
	}
	if c.fastPath {
		return // precomputed: no rate limit installed
	}
	if rl := c.net.rateLimit; rl != nil && rl.PerWindow > 0 {
		c.inWindow++
		if c.inWindow > rl.PerWindow {
			c.waited += rl.Window
			c.inWindow = 1
		}
	}
}

// markQueried records the access of v and reports whether it was the first —
// per client normally, across all attached clients under a shared cache.
func (c *Client) markQueried(v int32) bool {
	if c.shared != nil {
		return c.shared.markQueried(v)
	}
	pi := uint32(v) >> l1Shift
	pg := c.acct[pi]
	if pg == nil {
		pg = new(acctPage)
		c.acct[pi] = pg
	}
	o := uint32(v) & l1Mask
	w, bit := o>>6, uint64(1)<<(o&63)
	if pg.queried[w]&bit != 0 {
		return false
	}
	pg.queried[w] |= bit
	c.nQueried++
	return true
}

// wasQueried reports whether v has been accessed — by this client, or by any
// client of the shared cache when one is attached.
func (c *Client) wasQueried(v int32) bool {
	if c.shared != nil {
		return c.shared.wasQueried(v)
	}
	pg := c.acct[uint32(v)>>l1Shift]
	if pg == nil {
		return false
	}
	o := uint32(v) & l1Mask
	return pg.queried[o>>6]&(1<<(o&63)) != 0
}

// Queries returns the query cost this client incurred itself under its
// CostMode. Under a shared cache a node first touched by a sibling costs this
// client nothing; use TotalQueries for the fleet-wide cost.
func (c *Client) Queries() int64 { return c.queries }

// TotalQueries returns the total query cost of the crawl this client is part
// of: the shared cache's global meter when one is attached, the client's own
// meter otherwise. This is the x-axis quantity of the paper's cost figures
// for both single-threaded and parallel runs.
func (c *Client) TotalQueries() int64 {
	if c.shared != nil {
		return c.shared.Queries()
	}
	return c.queries
}

// Calls returns the total number of interface calls, cached or not.
func (c *Client) Calls() int64 { return c.calls }

// Waited returns the total simulated rate-limit wait time.
func (c *Client) Waited() time.Duration { return c.waited }

// KnownNodes returns the ids of all nodes whose neighbor lists have been
// requested so far (the crawler's frontier knowledge), sorted ascending.
// Under a shared cache this is the combined knowledge of all attached
// clients.
func (c *Client) KnownNodes() []int {
	if c.shared != nil {
		return c.shared.KnownNodes()
	}
	out := make([]int, 0, c.nQueried)
	for pi, pg := range c.acct {
		if pg == nil {
			continue
		}
		for w, word := range pg.queried {
			out = appendBits(out, pi<<l1Shift+w<<6, word)
		}
	}
	return out
}

// appendBits appends base+i to out for every set bit i of word, ascending.
func appendBits(out []int, base int, word uint64) []int {
	for word != 0 {
		out = append(out, base+bits.TrailingZeros64(word))
		word &= word - 1
	}
	return out
}
