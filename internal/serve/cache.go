package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/walk"
)

// Result-cache layer: content-addressed memoization of completed jobs, one
// level above the neighbor cache. Per-job determinism is a tested contract —
// a job's sample sequence is a pure function of (graph, normalized spec) —
// so a completed job's retained record IS the answer to every future
// submission of the same spec. The cache exploits that: admission consults
// it before the bounded queue, and a hit is served with zero walk steps,
// zero query charges, and zero estimation-worker occupancy.
//
// The key is SpecDigest over (graph id, normalized spec): NormalizeSpec
// collapses trivially-equivalent submissions (defaults elided vs explicit,
// workers over-asked and clamped, design case aliases) onto one canonical
// spec, so they share a digest and hit the same entry.

// NormEnv is the engine- and manager-derived context spec normalization
// closes over: everything that turns a client-supplied spec into the
// canonical spec the determinism contract (and the result-cache digest) is
// stated over. Two daemons with equal NormEnv normalize identically — the
// cluster coordinator learns a worker's env from its stats and runs the
// same normalization fleet-side.
type NormEnv struct {
	// GraphID fingerprints the loaded graph; digests over different graphs
	// never collide.
	GraphID string `json:"graph_id"`
	// NumNodes bounds start-node validation.
	NumNodes int `json:"num_nodes"`
	// DefaultStart is the engine's max-degree node (-1 when the backend has
	// no ground-truth view to pick one from).
	DefaultStart int `json:"default_start"`
	// DefaultWalkLen is the engine's 2·D̄+1 default.
	DefaultWalkLen int `json:"default_walklen"`
	// MaxWorkersPerJob is the manager's per-job worker clamp.
	MaxWorkersPerJob int `json:"max_workers_per_job"`
}

// NormalizeSpec fills spec defaults, validates, and canonicalizes: the
// result is the contract a job's determinism is stated over, and the input
// to SpecDigest. Equivalent submissions — defaults elided vs spelled out,
// Workers above the clamp, design name case aliases — normalize to one
// canonical spec. DeadlineMS is validated but deliberately NOT part of the
// result identity: it bounds how long a run may take, never what a
// completed run produces.
func NormalizeSpec(spec JobSpec, env NormEnv) (JobSpec, error) {
	if spec.Type == "" {
		spec.Type = TypeSample
	}
	switch spec.Type {
	case TypeSample, TypeEstimateMean, TypeWalkPath:
	default:
		return spec, fmt.Errorf("serve: unknown job type %q", spec.Type)
	}
	if spec.Design == "" {
		spec.Design = "srw"
	}
	if _, err := walk.ByName(spec.Design); err != nil {
		return spec, err
	}
	spec.Design = strings.ToLower(spec.Design)
	if spec.Count < 0 {
		return spec, fmt.Errorf("serve: negative count %d", spec.Count)
	}
	if spec.Count == 0 {
		spec.Count = 10
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Workers <= 0 {
		spec.Workers = 1
	}
	if spec.Workers > env.MaxWorkersPerJob {
		spec.Workers = env.MaxWorkersPerJob
	}
	if spec.Start == nil {
		if env.DefaultStart < 0 {
			return spec, errors.New("serve: spec needs a start node (backend has no ground-truth view to pick one from)")
		}
		v := env.DefaultStart
		spec.Start = &v
	} else if *spec.Start < 0 || *spec.Start >= env.NumNodes {
		return spec, fmt.Errorf("serve: start node %d out of range [0, %d)", *spec.Start, env.NumNodes)
	}
	if spec.WalkLength <= 0 {
		spec.WalkLength = env.DefaultWalkLen
	}
	if spec.CrawlHops <= 0 {
		spec.CrawlHops = 2
	}
	if spec.Attr == "" {
		spec.Attr = "degree"
	}
	if spec.DeadlineMS < 0 {
		return spec, fmt.Errorf("serve: negative deadline_ms %d", spec.DeadlineMS)
	}
	// Every walk of a wave holds a kernel lane, so these two bound a job's
	// memory: refuse them here, before a job exists.
	if spec.BackwardReps < 0 || spec.BackwardReps > core.MaxWalksPerCandidate {
		return spec, fmt.Errorf("serve: backward_reps %d out of range [0, %d]", spec.BackwardReps, core.MaxWalksPerCandidate)
	}
	if spec.BackwardReps == 0 {
		spec.BackwardReps = core.DefaultBackwardReps
	}
	if spec.VarianceBudget < 0 || spec.VarianceBudget > core.MaxWalksPerCandidate {
		return spec, fmt.Errorf("serve: variance_budget %d out of range [0, %d]", spec.VarianceBudget, core.MaxWalksPerCandidate)
	}
	return spec, nil
}

// SpecDigest content-addresses a normalized spec on a graph: a canonical
// serialization of every result-determining field (fixed order, explicit
// values) hashed with SHA-256, truncated to 128 bits. Specs that normalize
// equal share a digest; specs differing in any result-determining field do
// not. The sampler's draw version is part of the address: a result drawn
// by other sampling code is another result. Call it on NormalizeSpec
// output — digesting a raw spec would keep elided defaults and explicit
// ones apart.
func SpecDigest(env NormEnv, spec JobSpec) string {
	start := -1
	if spec.Start != nil {
		start = *spec.Start
	}
	h := sha256.New()
	fmt.Fprintf(h,
		"draws=%d|g=%s|type=%s|design=%s|count=%d|seed=%d|workers=%d|start=%d|walklen=%d|hops=%d|nocrawl=%t|noweighted=%t|breps=%d|vbudget=%d|attr=%s",
		core.DrawVersion, env.GraphID, spec.Type, strings.ToLower(spec.Design), spec.Count,
		spec.Seed, spec.Workers, start, spec.WalkLength, spec.CrawlHops,
		spec.NoCrawl, spec.NoWeighted, spec.BackwardReps, spec.VarianceBudget,
		spec.Attr)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// DefaultCacheBytes is the result-cache budget used when Config.CacheBytes
// is zero. 64 MiB holds on the order of a million cached sample rows —
// plenty for a zipfian working set while staying a rounding error next to
// the graph itself.
const DefaultCacheBytes = 64 << 20

// ResultCacheStats is an atomic snapshot of the result cache's meters.
type ResultCacheStats struct {
	Enabled   bool  `json:"enabled"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	// QueriesSaved accumulates, per hit, the original run's query charge —
	// the cost a cold fleet would have paid to recompute the answer.
	QueriesSaved int64 `json:"queries_saved"`
}

// ResultCache is a byte-bounded LRU of completed job results keyed by
// SpecDigest. Entries hold the job's full streamed rows and result summary,
// so a hit replays the NDJSON stream byte-for-byte. Only clean completions
// are stored (never partial results — a deadline-truncated run is not THE
// answer for its spec). Safe for concurrent use.
type ResultCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	saved     atomic.Int64
}

type cacheEntry struct {
	digest string
	rows   []Sample
	result JobResult
	size   int64
}

// NewResultCache returns an LRU result cache bounded to maxBytes
// (DefaultCacheBytes when maxBytes <= 0).
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &ResultCache{
		max:     maxBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// entrySize approximates an entry's resident footprint: the rows slice, the
// result's node sequence, and fixed per-entry overhead (map slot, list
// element, digest string, result struct).
func entrySize(rows []Sample, result *JobResult) int64 {
	size := int64(256) + 40*int64(len(rows))
	if result != nil {
		size += 8 * int64(len(result.Nodes))
	}
	return size
}

// Get looks up a digest, promoting a hit to most-recently-used. It returns
// the stored rows (append-only, safe to share) and a copy of the stored
// result, and accounts the hit's saved charges (the original run's query
// cost). A miss is counted too: hits/(hits+misses) is the submission hit
// rate.
func (rc *ResultCache) Get(digest string) ([]Sample, *JobResult, bool) {
	rc.mu.Lock()
	el, ok := rc.entries[digest]
	if !ok {
		rc.mu.Unlock()
		rc.misses.Add(1)
		return nil, nil, false
	}
	rc.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	res := e.result // copy; callers rewrite per-hit fields
	rows := e.rows
	rc.mu.Unlock()
	rc.hits.Add(1)
	rc.saved.Add(res.Queries)
	return rows, &res, true
}

// Put stores a completed job's rows and result under its digest, evicting
// least-recently-used entries until the byte budget holds. An entry larger
// than the whole budget is not stored (it would evict everything for one
// answer). Re-putting an existing digest refreshes recency and keeps the
// original entry — both were produced by the same deterministic function,
// so they are interchangeable.
func (rc *ResultCache) Put(digest string, rows []Sample, result *JobResult) {
	if result == nil || result.Partial {
		return
	}
	size := entrySize(rows, result)
	if size > rc.max {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[digest]; ok {
		rc.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{digest: digest, rows: rows, result: *result, size: size}
	rc.entries[digest] = rc.lru.PushFront(e)
	rc.bytes += size
	for rc.bytes > rc.max {
		back := rc.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		rc.lru.Remove(back)
		delete(rc.entries, old.digest)
		rc.bytes -= old.size
		rc.evictions.Add(1)
	}
}

// Len returns the number of cached results.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}

// Stats returns a point-in-time snapshot of the cache meters.
func (rc *ResultCache) Stats() ResultCacheStats {
	rc.mu.Lock()
	entries, bytes := len(rc.entries), rc.bytes
	rc.mu.Unlock()
	return ResultCacheStats{
		Enabled:      true,
		Hits:         rc.hits.Load(),
		Misses:       rc.misses.Load(),
		Evictions:    rc.evictions.Load(),
		Entries:      entries,
		Bytes:        bytes,
		MaxBytes:     rc.max,
		QueriesSaved: rc.saved.Load(),
	}
}
