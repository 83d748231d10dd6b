// Package cluster scales the resident sampling service from one daemon to a
// coordinator/worker fleet while keeping the paper's cost accounting exact.
//
// Roles:
//
//   - A Worker is a full serve stack (Engine + Manager + HTTP surface) that
//     additionally owns a slice of the fleet's neighbor-cache shards: cache
//     shard s (s = v & 63, the same sharding osn.SharedCache uses) belongs
//     to worker s mod N. Workers register with the coordinator, heartbeat
//     their meters, and answer shard-owner lookups for each other over
//     POST /cluster/v1/resolve — so any worker can resolve any frontier,
//     paying one RPC instead of one backend fetch when the owner already
//     holds the node.
//   - The Coordinator admits jobs over the same HTTP surface weserve
//     exposes (POST /v1/jobs, NDJSON /stream, DELETE, /metrics, /readyz),
//     places each job on a live worker, relays its sample stream to the
//     client, and aggregates fleet meters. On worker loss it re-dispatches
//     the job's normalized spec to another worker and suppresses the rows
//     already delivered — the deterministic re-run (PR 7's resume contract)
//     makes the client-visible stream bit-identical to an uninterrupted
//     run.
//
// Charging: each worker's SharedCache counts OwnedUnique — distinct owned
// nodes first-accessed anywhere in the fleet (owners arbitrate first-access
// for their shards). The coordinator's fleet_queries is the sum of
// OwnedUnique over all workers (dead workers contribute their last reported
// count), which equals the single-process TotalQueries for the same jobs at
// fixed (seed, workers) — see internal/osn/partition.go for the argument.
//
// The wire protocol is deliberately small and JSON-over-HTTP (matching the
// rest of the service): register, heartbeat, resolve, stats. Heartbeats
// piggyback worker meters so a coordinator /metrics scrape never blocks on
// the fleet.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve"
)

// Protocol paths mounted by Worker.Handler and Coordinator.Handler.
const (
	PathRegister  = "/cluster/v1/register"
	PathHeartbeat = "/cluster/v1/heartbeat"
	PathResolve   = "/cluster/v1/resolve"
	PathStats     = "/cluster/v1/stats"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Addr is the worker's reachable base URL (http://host:port).
	Addr string `json:"addr"`
	// Name is an optional operator label.
	Name string `json:"name,omitempty"`
}

// RegisterResponse assigns the worker its fleet slot.
type RegisterResponse struct {
	// Index is the worker's position in [0, Workers): it owns cache shard s
	// iff s mod Workers == Index.
	Index int `json:"index"`
	// Workers is the fleet size the coordinator was configured for.
	Workers int `json:"workers"`
	// Peers maps fleet index to worker base URL ("" when unregistered).
	Peers []string `json:"peers"`
	// Complete reports whether every fleet slot is registered and alive.
	Complete bool `json:"complete"`
}

// WorkerStats is a worker's meter snapshot, piggybacked on heartbeats and
// served at /cluster/v1/stats.
type WorkerStats struct {
	Name            string `json:"name,omitempty"`
	Samples         int64  `json:"samples"`
	InFlight        int64  `json:"inflight"`
	Queries         int64  `json:"queries"`
	Calls           int64  `json:"calls"`
	UniqueNodes     int64  `json:"unique_nodes"`
	OwnedUnique     int64  `json:"owned_unique"`
	RemoteFallbacks int64  `json:"remote_fallbacks"`
	// Partitioned reports that the worker has installed the fleet cache
	// partition (trivially true for a one-worker fleet). The coordinator's
	// /readyz waits for every worker's flag: jobs run before a partition is
	// installed would charge their unique nodes locally AND at the owner,
	// breaking exact fleet-wide accounting.
	Partitioned bool `json:"partitioned"`
	// Result-cache meters (the worker's own serve-layer job result cache).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`
	// Norm is the worker's spec-normalization environment. The coordinator
	// adopts it to canonicalize and digest incoming specs fleet-side, so
	// repeat submissions are answered without dispatching to any worker.
	// Env drift between coordinator and worker can only cause cache misses,
	// never false hits: entries are stored under worker-computed digests.
	Norm *serve.NormEnv `json:"norm,omitempty"`
}

// HeartbeatRequest refreshes a worker's liveness and meters.
type HeartbeatRequest struct {
	Index int         `json:"index"`
	Addr  string      `json:"addr"`
	Stats WorkerStats `json:"stats"`
}

// HeartbeatResponse carries the current fleet view back to the worker.
type HeartbeatResponse struct {
	Peers    []string `json:"peers"`
	Complete bool     `json:"complete"`
}

// ResolveRequest asks a shard owner to resolve neighbor lists for ids it
// owns (lookup-or-fetch + store + fleet-first test-and-set).
type ResolveRequest struct {
	IDs []int32 `json:"ids"`
}

// ResolveResponse carries the owner's answers: Lists[i] is the neighbor
// list of IDs[i], First[i] its fleet-first verdict (the requester charges
// iff First[i]).
type ResolveResponse struct {
	Lists [][]int32 `json:"lists"`
	First []bool    `json:"first"`
}

// postJSON posts v and decodes the response into out (when non-nil),
// requiring status code want.
func postJSON(hc *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s returned %s", url, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
