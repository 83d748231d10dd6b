package osn

// This file is the cluster seam of the shared cache: a Partition splits the
// node id space into 64 shards (shard s holds the ids v with v&63 == s)
// across N fleet workers (shard s belongs to worker s mod N), and a
// ShardResolver carries non-owned lookups to the shard owner. Everything
// here is cold-path only: the partition is consulted after a shared-cache
// miss, behind a single atomic pointer load, so the zero-alloc warm-path
// contracts are untouched and a single-process cache (no partition
// installed) behaves exactly as before.
//
// Charging contract. Each worker's cache keeps two unique-node meters:
//
//   - uniq/queries: every distinct node this worker touched (local view);
//   - owned: distinct *owned* nodes first-accessed here — the owner's
//     queried bitset is the fleet-wide authority for its shards, so
//     Σ OwnedUnique over workers == |distinct nodes accessed fleet-wide|
//     == the single-process TotalQueries at the same (seed, workers).
//
// A requester resolving a remote id charges its own queries meter with the
// owner's fleet-first verdict (first[i] from the RPC), so Σ Queries over
// workers equals the same total: each fleet-first access is charged at
// exactly one requester and counted at exactly one owner.
//
// Partition resolution requires an unrestricted, unlimited view (the serve
// stack's shape): owners serve raw backend lists, so restrictions or rate
// limits on the requester would not survive the hop. Clients only take the
// remote branch on the fastPath.

import "context"

// ShardResolver resolves neighbor lists for node ids owned by other fleet
// workers, typically over an RPC to each shard owner. On success lists[i]
// holds the neighbor list of ids[i] and first[i] reports whether this access
// was the first fleet-wide (the owner's test-and-set verdict, which the
// requester must use for charging). ids may span several owners; the
// resolver is responsible for grouping. An error means the batch could not
// be resolved (owners unreachable); the caller falls back to its local
// backend so walks keep moving.
type ShardResolver interface {
	ResolveShards(ctx context.Context, ids []int32, lists [][]int32, first []bool) error
}

// partitionShards is the number of id shards (v & 63) a Partition deals out
// to fleet workers.
const partitionShards = 64

// Partition describes this worker's slice of a fleet-partitioned shared
// cache: shard s (s = v & 63) is owned by worker s mod Workers.
type Partition struct {
	// Index is this worker's position in [0, Workers).
	Index int
	// Workers is the fleet size.
	Workers int
	// Resolver carries non-owned lookups to their shard owners. A nil
	// Resolver disables remote resolution (ownership still gates the
	// owned-unique meter).
	Resolver ShardResolver
}

// OwnerOf returns the fleet index owning node v's shard.
func (p *Partition) OwnerOf(v int32) int {
	return int(uint32(v)&(partitionShards-1)) % p.Workers
}

// Owns reports whether this worker owns node v's shard.
func (p *Partition) Owns(v int32) bool { return p.OwnerOf(v) == p.Index }

// SetPartition installs (or, with nil, removes) the fleet partition. The
// swap is atomic and may happen while clients are running: the partition is
// consulted only on the cold miss path, and ownership changes only move
// where future first-accesses are counted. Install it before serving
// traffic when exact fleet charging is required.
func (sc *SharedCache) SetPartition(p *Partition) { sc.part.Store(p) }

// Partition returns the installed fleet partition, or nil.
func (sc *SharedCache) Partition() *Partition { return sc.part.Load() }

// OwnedUnique returns the number of distinct nodes first-accessed through
// this cache that its partition owns. Without a partition every node is
// owned, so this equals UniqueNodes. Summed across a fleet, OwnedUnique is
// the exact distinct-node total — the paper's query cost — regardless of
// which workers touched which nodes.
func (sc *SharedCache) OwnedUnique() int64 { return sc.owned.Load() }

// RemoteFallbacks returns how many non-owned ids were served by a local
// backend fetch because their shard owner was unreachable. Non-zero values
// mean the fleet meter is approximate until the fleet heals (the fallback
// charges locally; the dead owner's bitset is the lost authority).
func (sc *SharedCache) RemoteFallbacks() int64 { return sc.remoteFallbacks.Load() }

// ownsLocal reports whether first-marking v here should count toward the
// owned-unique meter: always without a partition, owner-only with one.
func (sc *SharedCache) ownsLocal(p *Partition, v int32) bool {
	return p == nil || p.Owns(v)
}

// ResolveOwned answers a shard-owner lookup for ids this cache's worker
// owns: each id is served from the cache or — for the misses — fetched in
// one batched fetch call, stored (concurrent winners kept), and test-and-set
// against the owner's queried bitset, which is the fleet authority for these
// shards. lists[i] and first[i] are filled for every ids[i]; first[i] is the
// fleet-first verdict the requester charges with. Safe for concurrent use;
// racing resolves of the same id hand first=true to exactly one caller.
func (sc *SharedCache) ResolveOwned(ids []int32, lists [][]int32, first []bool, fetch func(miss []int32, out [][]int32) error) error {
	var missIDs []int32
	var missPos []int
	for i, v := range ids {
		nbr, ok := sc.lookup(v)
		lists[i] = nbr
		if !ok {
			missIDs = append(missIDs, v)
			missPos = append(missPos, i)
		}
	}
	if len(missIDs) > 0 {
		missLists := make([][]int32, len(missIDs))
		if err := fetch(missIDs, missLists); err != nil {
			return err
		}
		for j, v := range missIDs {
			lists[missPos[j]] = sc.store(v, missLists[j])
		}
	}
	for i, v := range ids {
		first[i] = sc.markQueried(v)
	}
	return nil
}

// neighborsRemote resolves a single non-owned miss through the shard owner:
// the returned list is absorbed into the local cache (uncharged against the
// owned meter — the owner counted it), and the owner's fleet-first verdict
// drives this client's charge.
func (c *Client) neighborsRemote(v int32, p *Partition) []int32 {
	ids := [1]int32{v}
	var lists [1][]int32
	var first [1]bool
	if err := p.Resolver.ResolveShards(c.ctx, ids[:], lists[:], first[:]); err != nil {
		c.shared.remoteFallbacks.Add(1)
		return c.neighborsFallback(v)
	}
	nbr := c.shared.absorb(v, lists[0])
	c.chargeBatch(1, first[:])
	return nbr
}

// neighborsFallback is the owner-unreachable path: fetch v from the local
// backend and absorb it as if owned, so the walk completes. The charge uses
// the local first-mark — approximate fleet-wide, exact again once owners are
// back (documented on RemoteFallbacks).
func (c *Client) neighborsFallback(v int32) []int32 {
	var nbr []int32
	if c.fb != nil {
		var err error
		nbr, err = c.fb.NeighborsCtx(c.ctx, int(v))
		if err != nil {
			c.noteFetchError(err)
			return nil
		}
	} else {
		nbr = c.net.be.Neighbors(int(v))
	}
	nbr = c.shared.store(v, nbr)
	c.charge(v)
	return nbr
}

// absorb stores an owner-resolved list of non-owned v and marks v queried
// for local dedup bookkeeping (ownership keeps it off the owned meter). It
// returns the winning entry, as store does.
func (sc *SharedCache) absorb(v int32, nbr []int32) []int32 {
	nbr = sc.store(v, nbr)
	sc.markQueried(v)
	return nbr
}

// resolvePartitioned splits a deduplicated miss batch into locally-owned ids
// — returned for the caller's usual backend pass — and remote ids, which are
// resolved through their shard owners in one ShardResolver call, absorbed
// into the local cache, and charged with the owners' fleet-first verdicts.
// On resolver error the remote ids are handed back for local fetching
// (fallback), keeping the batch complete.
func (c *Client) resolvePartitioned(p *Partition, fetch []int32) []int32 {
	k := 0
	remote := c.remoteIDs[:0]
	for _, v := range fetch {
		if p.Owns(v) {
			fetch[k] = v
			k++
		} else {
			remote = append(remote, v)
		}
	}
	c.remoteIDs = remote
	if len(remote) == 0 {
		return fetch[:k]
	}
	if cap(c.remoteLists) < len(remote) {
		c.remoteLists = make([][]int32, len(remote), 2*len(remote))
	}
	lists := c.remoteLists[:len(remote)]
	if cap(c.remoteFirst) < len(remote) {
		c.remoteFirst = make([]bool, len(remote), 2*len(remote))
	}
	first := c.remoteFirst[:len(remote)]
	if err := p.Resolver.ResolveShards(c.ctx, remote, lists, first); err != nil {
		c.shared.remoteFallbacks.Add(int64(len(remote)))
		return append(fetch[:k], remote...)
	}
	for i, v := range remote {
		c.shared.absorb(v, lists[i])
	}
	c.chargeBatch(len(remote), first)
	return fetch[:k]
}
