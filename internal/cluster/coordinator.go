package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// CoordinatorConfig configures the fleet frontend. Zero fields select
// defaults.
type CoordinatorConfig struct {
	// Workers is the expected fleet size (required, >= 1). The coordinator
	// assigns indices 0..Workers-1 and reports ready only when every slot
	// is registered and alive.
	Workers int
	// HeartbeatTimeout is how stale a worker's last heartbeat may be before
	// it is considered dead (default 2s).
	HeartbeatTimeout time.Duration
	// Journal, when non-nil, makes coordinator jobs durable exactly as a
	// daemon's are: accepted specs, relay progress, and terminal records are
	// journaled, terminal jobs rehydrate at boot and incomplete ones are
	// re-dispatched. The coordinator takes ownership and closes it on Close.
	Journal *serve.Journal
	// CacheBytes bounds the coordinator-side job result cache: completed
	// jobs are memoized by the digest their worker reported, and repeat
	// submissions are answered without dispatching to any worker. Zero
	// selects serve.DefaultCacheBytes; negative disables it.
	CacheBytes int64
}

func (c CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if c.Workers < 1 {
		return c, errors.New("cluster: coordinator needs a fleet size >= 1")
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	return c, nil
}

// workerSlot is the coordinator's view of one fleet index.
type workerSlot struct {
	addr     string
	name     string
	lastSeen time.Time
	stats    WorkerStats
	// lastOwned survives death: a dead worker's owned-unique charges stay
	// in the fleet aggregate (its queried bitset was the authority while it
	// lived).
	lastOwned int64
	// generation increments on (re-)registration, so a replacement worker
	// taking over a dead slot invalidates relays pinned to the old one.
	generation int64
}

// Typed shed reasons the coordinator adds on top of the worker's own
// (queue_full, draining — which are forwarded verbatim).
const (
	// ShedNoWorkers is returned when no live worker can take a job.
	ShedNoWorkers = "no_workers"
)

// ReasonWorkerLost marks a job that exhausted its dispatch attempts.
const ReasonWorkerLost = "worker_lost"

// Coordinator is the fleet frontend: worker registry and liveness, job
// placement, stream relay with hand-off, and aggregated meters, served over
// the same HTTP surface as a single weserve daemon. Its jobs live in a
// serve.Manager driven by a fleetRunner, so the job lifecycle — admission,
// result cache, job table, streams, journal, recovery, retention — is the
// daemon's own.
type Coordinator struct {
	cfg   CoordinatorConfig
	hc    *http.Client // dispatch/status calls (bounded)
	sc    *http.Client // stream relays (unbounded)
	start time.Time
	mgr   *serve.Manager

	mu      sync.Mutex
	workers []workerSlot
	rr      int // round-robin placement cursor

	// normEnv is the normalization environment adopted from worker
	// heartbeats, needed to digest submissions coordinator-side.
	normEnv atomic.Pointer[serve.NormEnv]

	shedForwarded atomic.Int64
	handoffs      atomic.Int64

	wg sync.WaitGroup // relays
}

// NewCoordinator builds the fleet frontend. With a journal attached,
// terminal jobs rehydrate and incomplete jobs are re-dispatched (suppressing
// already-durable rows) once workers join.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:     cfg,
		hc:      &http.Client{Timeout: dispatchTimeout},
		sc:      &http.Client{},
		start:   time.Now(),
		workers: make([]workerSlot, cfg.Workers),
	}
	co.mgr = serve.NewRunnerManager(fleetRunner{co}, serve.Config{
		Journal: cfg.Journal, CacheBytes: cfg.CacheBytes,
	})
	return co, nil
}

// Close stops placement (later submissions shed with "draining"), abandons
// relays, and closes the journal. Worker processes are not touched.
func (co *Coordinator) Close() { co.mgr.Close() }

// List returns snapshots of all retained coordinator jobs in submission
// order.
func (co *Coordinator) List() []JobStatus {
	jobs := co.mgr.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = co.status(j)
	}
	return out
}

func (co *Coordinator) alive(s *workerSlot, now time.Time) bool {
	return s.addr != "" && now.Sub(s.lastSeen) <= co.cfg.HeartbeatTimeout
}

// register assigns the worker a fleet index: a slot it already holds (same
// addr), else the first empty slot, else the first dead slot (replacement).
func (co *Coordinator) register(req RegisterRequest) (RegisterResponse, error) {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	idx := -1
	for i := range co.workers {
		if co.workers[i].addr == req.Addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		for i := range co.workers {
			if co.workers[i].addr == "" {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		for i := range co.workers {
			if !co.alive(&co.workers[i], now) {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return RegisterResponse{}, fmt.Errorf("fleet full: %d live workers", len(co.workers))
	}
	s := &co.workers[idx]
	s.addr = req.Addr
	s.name = req.Name
	s.lastSeen = now
	s.generation++
	return RegisterResponse{
		Index:    idx,
		Workers:  len(co.workers),
		Peers:    co.peersLocked(),
		Complete: co.completeLocked(now),
	}, nil
}

func (co *Coordinator) peersLocked() []string {
	peers := make([]string, len(co.workers))
	for i := range co.workers {
		peers[i] = co.workers[i].addr
	}
	return peers
}

func (co *Coordinator) completeLocked(now time.Time) bool {
	for i := range co.workers {
		if !co.alive(&co.workers[i], now) {
			return false
		}
	}
	return true
}

// partitionedLocked reports whether every live worker has confirmed (via
// heartbeat) that its cache partition is installed. Jobs placed earlier
// would charge unique nodes both locally and at their shard owner, so
// /readyz holds until this is true.
func (co *Coordinator) partitionedLocked() bool {
	for i := range co.workers {
		if !co.workers[i].stats.Partitioned {
			return false
		}
	}
	return true
}

func (co *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	if req.Index < 0 || req.Index >= len(co.workers) {
		return HeartbeatResponse{}, fmt.Errorf("unknown worker index %d", req.Index)
	}
	s := &co.workers[req.Index]
	if s.addr != req.Addr {
		// Slot was re-assigned (the worker was declared dead and replaced);
		// the stale worker must re-register.
		return HeartbeatResponse{}, fmt.Errorf("index %d now belongs to %s", req.Index, s.addr)
	}
	s.lastSeen = now
	s.stats = req.Stats
	s.lastOwned = req.Stats.OwnedUnique
	if req.Stats.Norm != nil {
		co.normEnv.Store(req.Stats.Norm)
	}
	return HeartbeatResponse{Peers: co.peersLocked(), Complete: co.completeLocked(now)}, nil
}

// checkNorm refuses a worker's normalization environment that no engine
// reports: one that would clamp every spec to 0 workers, or bound start
// nodes to an empty graph. Adopted, it would give coordinator digests no
// worker reproduces, so every hand-off would be refused.
func checkNorm(env *serve.NormEnv) error {
	if env != nil && (env.MaxWorkersPerJob < 1 || env.NumNodes < 1) {
		return fmt.Errorf("invalid norm: max_workers_per_job %d and num_nodes %d must be >= 1",
			env.MaxWorkersPerJob, env.NumNodes)
	}
	return nil
}

// markDead immediately ages a worker out (dispatch or relay saw its
// connection die) so placement skips it without waiting a full timeout.
func (co *Coordinator) markDead(idx int, generation int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if idx < 0 || idx >= len(co.workers) {
		return
	}
	if co.workers[idx].generation == generation {
		co.workers[idx].lastSeen = time.Time{}
	}
}

// pickWorker returns the next live worker in round-robin order, skipping
// indices in `not` (already tried for this job). ok is false when no live
// worker remains.
func (co *Coordinator) pickWorker(not map[int]bool) (idx int, addr string, generation int64, ok bool) {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	n := len(co.workers)
	for off := 0; off < n; off++ {
		i := (co.rr + off) % n
		if not[i] || !co.alive(&co.workers[i], now) {
			continue
		}
		co.rr = (i + 1) % n
		return i, co.workers[i].addr, co.workers[i].generation, true
	}
	return 0, "", 0, false
}

// FleetQueries returns the fleet-wide unique-node charge: the sum of every
// worker's owned-unique meter, dead workers contributing their last
// reported value.
func (co *Coordinator) FleetQueries() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	var total int64
	for i := range co.workers {
		total += co.workers[i].lastOwned
	}
	return total
}

// WorkersLive returns how many fleet slots are currently alive.
func (co *Coordinator) WorkersLive() int {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for i := range co.workers {
		if co.alive(&co.workers[i], now) {
			n++
		}
	}
	return n
}

// refreshStats synchronously scrapes every live worker's /cluster/v1/stats,
// so fleet summaries taken right after a job completes see its final
// meters instead of waiting a heartbeat period.
func (co *Coordinator) refreshStats() {
	now := time.Now()
	co.mu.Lock()
	type target struct {
		idx  int
		addr string
		gen  int64
	}
	targets := make([]target, 0, len(co.workers))
	for i := range co.workers {
		if co.alive(&co.workers[i], now) {
			targets = append(targets, target{i, co.workers[i].addr, co.workers[i].generation})
		}
	}
	co.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			resp, err := co.hc.Get(t.addr + PathStats)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var st WorkerStats
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
				return
			}
			co.mu.Lock()
			if co.workers[t.idx].generation == t.gen {
				co.workers[t.idx].stats = st
				co.workers[t.idx].lastOwned = st.OwnedUnique
				co.workers[t.idx].lastSeen = time.Now()
			}
			co.mu.Unlock()
			if st.Norm != nil && checkNorm(st.Norm) == nil {
				co.normEnv.Store(st.Norm)
			}
		}(t)
	}
	wg.Wait()
}

// WorkerSummary is one fleet slot in the /v1/cluster summary.
type WorkerSummary struct {
	Index int         `json:"index"`
	Addr  string      `json:"addr,omitempty"`
	Name  string      `json:"name,omitempty"`
	Up    bool        `json:"up"`
	Stats WorkerStats `json:"stats"`
	// OwnedUnique repeats the worker's owned-unique meter at top level
	// (last reported value for dead workers) — the fleet_queries addend.
	OwnedUnique int64 `json:"owned_unique"`
}

// ClusterSummary is the /v1/cluster response.
type ClusterSummary struct {
	Workers      []WorkerSummary `json:"workers"`
	WorkersLive  int             `json:"workers_live"`
	WorkersTotal int             `json:"workers_total"`
	// FleetQueries is Σ owned-unique over all slots: the exact fleet-wide
	// unique-node charge (== single-process TotalQueries for the same jobs
	// at fixed seed/workers).
	FleetQueries int64 `json:"fleet_queries"`
	Handoffs     int64 `json:"handoffs"`
	// Cache is the coordinator-side result cache snapshot; CacheHits and
	// CacheMisses aggregate result-cache traffic fleet-wide (coordinator
	// lookups plus every worker's own cache, last reported values).
	Cache       serve.ResultCacheStats `json:"jobs_cache"`
	CacheHits   int64                  `json:"cache_hits"`
	CacheMisses int64                  `json:"cache_misses"`
}

// Summary snapshots the fleet, optionally refreshing worker stats first.
func (co *Coordinator) Summary(refresh bool) ClusterSummary {
	if refresh {
		co.refreshStats()
	}
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	out := ClusterSummary{
		Workers:      make([]WorkerSummary, len(co.workers)),
		WorkersTotal: len(co.workers),
		Handoffs:     co.handoffs.Load(),
		Cache:        co.ResultCacheStats(),
	}
	out.CacheHits = out.Cache.Hits
	out.CacheMisses = out.Cache.Misses
	for i := range co.workers {
		s := &co.workers[i]
		up := co.alive(s, now)
		out.Workers[i] = WorkerSummary{
			Index: i, Addr: s.addr, Name: s.name, Up: up,
			Stats: s.stats, OwnedUnique: s.lastOwned,
		}
		if up {
			out.WorkersLive++
		}
		out.FleetQueries += s.lastOwned
		out.CacheHits += s.stats.CacheHits
		out.CacheMisses += s.stats.CacheMisses
	}
	return out
}

// ResultCacheStats returns the coordinator-side result cache snapshot
// (Enabled false, all zeros, when disabled).
func (co *Coordinator) ResultCacheStats() serve.ResultCacheStats {
	return co.mgr.ResultCacheStats()
}

// Handler returns the coordinator's HTTP surface: the weserve-compatible
// job API (submissions fan out to workers, streams relay back), the fleet
// endpoints, and aggregated health/metrics.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if r.Method != http.MethodPost || json.NewDecoder(r.Body).Decode(&req) != nil || req.Addr == "" {
			serve.HTTPError(w, http.StatusBadRequest, "POST a register request with addr")
			return
		}
		resp, err := co.register(req)
		if err != nil {
			serve.HTTPError(w, http.StatusConflict, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if r.Method != http.MethodPost || json.NewDecoder(r.Body).Decode(&req) != nil {
			serve.HTTPError(w, http.StatusBadRequest, "POST a heartbeat")
			return
		}
		if err := checkNorm(req.Stats.Norm); err != nil {
			serve.HTTPError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp, err := co.heartbeat(req)
		if err != nil {
			serve.HTTPError(w, http.StatusGone, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	live := func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"ok":            true,
			"role":          "coordinator",
			"uptime_s":      time.Since(co.start).Seconds(),
			"workers_live":  co.WorkersLive(),
			"workers_total": co.cfg.Workers,
			"jobs_inflight": co.mgr.Metrics().InFlight(),
			"samples":       co.mgr.Metrics().Samples(),
		})
	}
	mux.HandleFunc("/healthz", live)
	mux.HandleFunc("/livez", live)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		draining := co.mgr.Draining()
		co.mu.Lock()
		complete := co.completeLocked(time.Now())
		partitioned := co.partitionedLocked()
		co.mu.Unlock()
		code := http.StatusOK
		if draining || !complete || !partitioned {
			code = http.StatusServiceUnavailable
		}
		serve.WriteJSON(w, code, map[string]any{
			"ready":         code == http.StatusOK,
			"draining":      draining,
			"partitioned":   partitioned,
			"workers_live":  co.WorkersLive(),
			"workers_total": co.cfg.Workers,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		co.WriteProm(w)
	})
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, co.Summary(r.URL.Query().Get("refresh") != "0"))
	})
	serve.JobRoutes(mux, co.mgr, func(j *serve.Job) any { return co.status(j) })
	return mux
}

// readBody reads at most 1 MiB of a response body (worker error bodies are
// tiny; the bound keeps a confused worker from ballooning the relay).
func readBody(r io.Reader) []byte {
	b, _ := io.ReadAll(io.LimitReader(r, 1<<20))
	return b
}
