package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/osn"
	"repro/internal/serve"
)

// WorkerConfig configures a fleet worker. Zero durations select defaults.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Advertise is this worker's externally reachable base URL (required) —
	// what peers dial for shard resolution and the coordinator dials for
	// job dispatch.
	Advertise string
	// Name is an optional operator label surfaced in fleet stats.
	Name string
	// HeartbeatEvery is the heartbeat period (default 300ms — liveness is
	// the hand-off trigger, so the period stays well under the
	// coordinator's timeout).
	HeartbeatEvery time.Duration
}

// resolveTimeout bounds one shard-owner RPC. On expiry the client falls back
// to its local backend (see osn.SharedCache RemoteFallbacks).
const resolveTimeout = 5 * time.Second

func (c WorkerConfig) withDefaults() (WorkerConfig, error) {
	if c.Coordinator == "" {
		return c, errors.New("cluster: worker needs a coordinator URL")
	}
	if c.Advertise == "" {
		return c, errors.New("cluster: worker needs an advertise URL")
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 300 * time.Millisecond
	}
	return c, nil
}

// Worker joins a serve.Manager to a sampling fleet: it registers with the
// coordinator, heartbeats its meters, answers shard-owner lookups for its
// slice of the neighbor cache, and — once every fleet slot is registered —
// installs the cache partition so its own jobs resolve non-owned misses
// through their owners. The full single-daemon HTTP surface stays mounted,
// so a worker is also directly usable as a plain weserve.
type Worker struct {
	mgr *serve.Manager
	cfg WorkerConfig
	hc  *http.Client

	mu        sync.Mutex
	index     int
	fleet     int
	peers     []string
	complete  bool
	installed bool
	joined    bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewWorker wraps an existing manager as a fleet worker. Call Start to
// register and begin heartbeating; mount Handler as the HTTP surface.
func NewWorker(mgr *serve.Manager, cfg WorkerConfig) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Worker{
		mgr:  mgr,
		cfg:  cfg,
		hc:   &http.Client{Timeout: resolveTimeout},
		stop: make(chan struct{}),
	}, nil
}

// Manager returns the wrapped serve manager.
func (w *Worker) Manager() *serve.Manager { return w.mgr }

// Index returns the worker's assigned fleet index (-1 before registration).
func (w *Worker) Index() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.joined {
		return -1
	}
	return w.index
}

// Handler returns the worker's HTTP surface: the full single-daemon serve
// API plus the cluster endpoints (shard resolution and stats).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathResolve, w.handleResolve)
	mux.HandleFunc(PathStats, func(rw http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(rw, http.StatusOK, w.Stats())
	})
	mux.Handle("/", serve.Handler(w.mgr))
	return mux
}

// Stats snapshots the worker's meters for heartbeats and fleet scrapes.
func (w *Worker) Stats() WorkerStats {
	cs := w.mgr.Engine().CacheStats()
	met := w.mgr.Metrics()
	w.mu.Lock()
	// A one-worker fleet needs no partition: local charging is already exact.
	partitioned := w.installed || (w.joined && w.complete && w.fleet <= 1)
	w.mu.Unlock()
	rcs := w.mgr.ResultCacheStats()
	env := w.mgr.NormEnv()
	return WorkerStats{
		Name:            w.cfg.Name,
		Samples:         met.Samples(),
		InFlight:        met.InFlight(),
		Queries:         cs.Queries,
		Calls:           cs.Calls,
		UniqueNodes:     cs.UniqueNodes,
		OwnedUnique:     cs.OwnedUnique,
		RemoteFallbacks: cs.RemoteFallbacks,
		Partitioned:     partitioned,
		CacheHits:       rcs.Hits,
		CacheMisses:     rcs.Misses,
		CacheEvictions:  rcs.Evictions,
		CacheBytes:      rcs.Bytes,
		Norm:            &env,
	}
}

// Start registers with the coordinator (retrying until it answers) and
// starts the heartbeat loop. It returns once registration succeeded.
func (w *Worker) Start() error {
	var reg RegisterResponse
	req := RegisterRequest{Addr: w.cfg.Advertise, Name: w.cfg.Name}
	for attempt := 0; ; attempt++ {
		err := postJSON(w.hc, w.cfg.Coordinator+PathRegister, req, &reg)
		if err == nil {
			break
		}
		if attempt >= 100 {
			return fmt.Errorf("cluster: registration with %s failed: %w", w.cfg.Coordinator, err)
		}
		select {
		case <-w.stop:
			return errors.New("cluster: worker stopped before registration")
		case <-time.After(100 * time.Millisecond):
		}
	}
	w.mu.Lock()
	w.joined = true
	w.index = reg.Index
	w.fleet = reg.Workers
	w.peers = reg.Peers
	w.complete = reg.Complete
	w.mu.Unlock()
	w.maybeInstallPartition()
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

// Close stops the heartbeat loop. The wrapped manager is not closed — the
// caller owns its lifecycle (and its graceful drain).
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	// First beat immediately: if registration already completed the fleet,
	// this announces the installed partition without waiting a period.
	w.beat()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		w.beat()
	}
}

// beat sends one heartbeat and folds the coordinator's fleet view back in.
// If that view completes the fleet, the partition is installed and a second
// beat announces it right away — the coordinator holds /readyz until every
// worker reports Partitioned, so the announcement is on the ready path.
func (w *Worker) beat() {
	w.mu.Lock()
	idx := w.index
	w.mu.Unlock()
	req := HeartbeatRequest{Index: idx, Addr: w.cfg.Advertise, Stats: w.Stats()}
	var hb HeartbeatResponse
	if err := postJSON(w.hc, w.cfg.Coordinator+PathHeartbeat, req, &hb); err != nil {
		return // coordinator away; keep trying, jobs keep running
	}
	w.mu.Lock()
	w.peers = hb.Peers
	w.complete = hb.Complete
	w.mu.Unlock()
	if w.maybeInstallPartition() {
		w.beat() // recurses at most once: installed is now true
	}
}

// maybeInstallPartition installs the cache partition once the fleet is
// complete, reporting whether this call did the install. Install-once: the
// partition (index, size) is fixed for the worker's lifetime; only the peer
// table keeps refreshing.
func (w *Worker) maybeInstallPartition() bool {
	w.mu.Lock()
	ready := w.joined && w.complete && !w.installed
	idx, fleet := w.index, w.fleet
	if ready {
		w.installed = true
	}
	w.mu.Unlock()
	if !ready || fleet <= 1 {
		return false
	}
	w.mgr.Engine().Cache().SetPartition(&osn.Partition{Index: idx, Workers: fleet, Resolver: w})
	return true
}

// peerAddr returns the current base URL of fleet index i ("" if unknown).
func (w *Worker) peerAddr(i int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i < 0 || i >= len(w.peers) {
		return ""
	}
	return w.peers[i]
}

// ResolveShards implements osn.ShardResolver: ids are grouped by shard
// owner and resolved with one concurrent RPC per owner. An unreachable or
// unknown owner, or an answer checkAnswer rejects, fails the whole batch —
// the client then serves it from the local backend (fallback), so a dying
// or faulty peer degrades charging accuracy, never availability.
func (w *Worker) ResolveShards(ctx context.Context, ids []int32, lists [][]int32, first []bool) error {
	w.mu.Lock()
	fleet := w.fleet
	self := w.index
	w.mu.Unlock()
	if fleet <= 1 {
		return errors.New("cluster: no fleet to resolve through")
	}
	p := osn.Partition{Index: self, Workers: fleet}
	n := w.mgr.Engine().NumNodes()
	// Group positions by owner.
	groups := make(map[int][]int, fleet)
	for i, v := range ids {
		groups[p.OwnerOf(v)] = append(groups[p.OwnerOf(v)], i)
	}
	rctx, cancel := context.WithTimeout(ctx, resolveTimeout)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 0, len(groups))
	var mu sync.Mutex
	for owner, pos := range groups {
		addr := w.peerAddr(owner)
		if addr == "" {
			return fmt.Errorf("cluster: owner %d unknown", owner)
		}
		wg.Add(1)
		go func(addr string, pos []int) {
			defer wg.Done()
			req := ResolveRequest{IDs: make([]int32, len(pos))}
			for j, i := range pos {
				req.IDs[j] = ids[i]
			}
			var resp ResolveResponse
			err := w.resolveCall(rctx, addr, req, &resp)
			if err == nil {
				if err = checkAnswer(&resp, len(pos), n); err != nil {
					err = fmt.Errorf("cluster: owner at %s %w", addr, err)
				}
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			for j, i := range pos {
				lists[i] = resp.Lists[j]
				first[i] = resp.First[j]
			}
		}(addr, pos)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// checkAnswer accepts an owner's answer to a want-id request only if it
// has one list and one verdict per id and every neighbor id lies in
// [0, n): the lists are cached as they came and later walked to, so an id
// off the graph would index past the backend's arrays.
func checkAnswer(resp *ResolveResponse, want, n int) error {
	if len(resp.Lists) != want || len(resp.First) != want {
		return fmt.Errorf("answered %d/%d of %d ids", len(resp.Lists), len(resp.First), want)
	}
	for _, l := range resp.Lists {
		for _, v := range l {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("answered neighbor %d, out of range [0, %d)", v, n)
			}
		}
	}
	return nil
}

// resolveCall is one owner RPC under ctx.
func (w *Worker) resolveCall(ctx context.Context, addr string, reqBody ResolveRequest, out *ResolveResponse) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+PathResolve, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: resolve at %s returned %s", addr, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// handleResolve is the owner side of the shard-resolution RPC: serve ids
// this worker owns from the engine cache, fetching misses from the backend
// in one batched call, and hand back the fleet-first verdicts.
func (w *Worker) handleResolve(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.HTTPError(rw, http.StatusMethodNotAllowed, "POST a resolve request")
		return
	}
	var req ResolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		serve.HTTPError(rw, http.StatusBadRequest, "bad resolve request: "+err.Error())
		return
	}
	eng := w.mgr.Engine()
	// Ids come off the wire: index only nodes that exist and that this
	// worker's partition owns (the owner's bitset is the charging authority).
	n, part := eng.NumNodes(), eng.Cache().Partition()
	for _, v := range req.IDs {
		if v < 0 || int(v) >= n {
			serve.HTTPError(rw, http.StatusBadRequest, fmt.Sprintf("node %d out of range [0, %d)", v, n))
			return
		}
		if part != nil && !part.Owns(v) {
			serve.HTTPError(rw, http.StatusBadRequest, fmt.Sprintf("node %d is not owned by worker %d", v, part.Index))
			return
		}
	}
	resp := ResolveResponse{
		Lists: make([][]int32, len(req.IDs)),
		First: make([]bool, len(req.IDs)),
	}
	be := eng.Network().Backend()
	err := eng.Cache().ResolveOwned(req.IDs, resp.Lists, resp.First, func(miss []int32, out [][]int32) error {
		be.NeighborsBatch(miss, out)
		return nil
	})
	if err != nil {
		serve.HTTPError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	// Empty lists must round-trip as [] (JSON null decodes to nil fine, but
	// keep the wire shape unambiguous for non-Go clients).
	for i, l := range resp.Lists {
		if l == nil {
			resp.Lists[i] = []int32{}
		}
	}
	serve.WriteJSON(rw, http.StatusOK, resp)
}
