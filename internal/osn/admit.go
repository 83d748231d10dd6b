package osn

import "slices"

// This file is the one cache-admission path. Every neighbor-list miss — a
// Neighbors miss (as a batch of one), a NeighborsBatch frontier, a Prefetch
// — ends in Client.admit, which applies the paper's unique-node charging
// rule (§2.1) exactly once per fetched node. The batched entry points only
// amortize backend round trips: their results, caching and metering are
// exactly what per-node Neighbors calls would produce for the same frontier.

// NeighborsBatch fills out[i] with the (possibly restricted) neighbor list
// of vs[i]; len(out) must equal len(vs). Cache hits are served in one pass,
// and the distinct misses are admitted together. The returned lists must
// not be modified.
//
// Under a non-deterministic (type-1) restriction nothing may be cached and
// every call must re-randomize, so the batch degenerates to per-node calls.
func (c *Client) NeighborsBatch(vs []int32, out [][]int32) {
	if len(vs) != len(out) {
		panic("osn: NeighborsBatch length mismatch")
	}
	if !c.cacheable {
		for i, v := range vs {
			out[i] = c.Neighbors(int(v))
		}
		return
	}
	// Serve cache hits; collect the positions still unresolved. The private
	// probe is inlined; the branch on the tier is predictable.
	pos := c.batchPos[:0]
	ids := c.batchIDs[:0]
	for i, v := range vs {
		var nbr []int32
		var ok bool
		if c.shared != nil {
			nbr, ok = c.shared.lookup(v)
		} else {
			nbr, ok = c.l1Lookup(v)
		}
		if ok {
			out[i] = nbr
		} else {
			pos = append(pos, int32(i))
			ids = append(ids, v)
		}
	}
	c.batchPos = pos
	if len(pos) == 0 {
		return
	}
	c.admitMisses(ids)
	// Every miss position is now warm in the cache (a failed fetch stays
	// absent and reads nil).
	for _, i := range pos {
		out[i], _ = c.cached(vs[i])
	}
}

// Prefetch warms the client's cache for vs in one batched pass; under a
// shared cache the fill (and its unique-node charges) is visible to all
// attached clients, so a fleet's frontier costs one backend round trip
// instead of a round trip per node. Nodes already cached cost nothing.
// Under a non-deterministic (type-1) restriction nothing may be cached, so
// Prefetch is a no-op — calling it never changes any restriction RNG stream
// or cost meter.
func (c *Client) Prefetch(vs []int32) {
	if len(vs) == 0 || !c.cacheable {
		return
	}
	ids := c.batchIDs[:0]
	for _, v := range vs {
		if _, ok := c.cached(v); !ok {
			ids = append(ids, v)
		}
	}
	if len(ids) > 0 {
		c.admitMisses(ids)
	}
}

// admitMisses deduplicates the uncached ids (duplicate occurrences behave
// like per-node calls: the first resolves, the rest are warm hits) and
// admits them, keeping ids as the client's batchIDs scratch.
func (c *Client) admitMisses(ids []int32) {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	c.batchIDs = ids
	c.admit(ids, grow(&c.batchLists, len(ids)))
}

// admit resolves the distinct, uncached ids and fills lists[i] with the list
// every later read of ids[i] sees, or nil when its fetch failed. In order:
//
//  1. in a fleet-partitioned cache (unrestricted views only: owners serve
//     raw lists), non-owned ids go to their shard owners in one resolver
//     call, which runs while step 2 fetches the owned ids, so a frontier
//     spanning owners costs one round trip, not two; resolved ids are
//     charged with the owners' fleet-first verdicts, and when the owners
//     are unreachable they are fetched locally after all (admitSplit);
//  2. one batch fetch of the rest, through the backend's fallible surface
//     when it has one;
//  3. the restriction, per node;
//  4. publication in the cache, when the view is cacheable (a concurrent
//     filler's winning entry is kept);
//  5. the first-access test-and-set;
//  6. one charge for every node fetched.
//
// A failed fetch is never published, charged or served: it is recorded
// (Err, FailedFetches) and reads as an empty list. admit may permute ids;
// lists follows the permuted order.
func (c *Client) admit(ids []int32, lists [][]int32) {
	if c.shared != nil && c.fastPath {
		c.admitSplit(ids, lists)
		return
	}
	c.fetch(ids, lists)
}

// admitSplit is admit for a shared cache on the fast path, the one view a
// fleet partition's resolver serves.
func (c *Client) admitSplit(ids []int32, lists [][]int32) {
	p := c.shared.part.Load()
	if p == nil || p.Resolver == nil {
		c.fetch(ids, lists)
		return
	}
	k := c.splitOwned(p, ids)
	if k == len(ids) {
		c.fetch(ids, lists)
		return
	}
	// The owners answer the non-owned ids while the owned ones are
	// fetched, so a frontier spanning owners waits one round trip, not
	// two. Until the answer arrives, remote, lists[k:] and first belong to
	// the resolver.
	remote := ids[k:]
	first := grow(&c.remoteFirst, len(remote))
	var err error
	if k == 0 {
		err = p.Resolver.ResolveShards(c.ctx, remote, lists, first)
	} else {
		if c.resolved == nil {
			c.resolved = make(chan error, 1)
		}
		done, ctx, out := c.resolved, c.ctx, lists[k:]
		go func() { done <- p.Resolver.ResolveShards(ctx, remote, out, first) }()
		c.fetch(ids[:k], lists[:k])
		err = <-done
	}
	if err != nil {
		c.shared.remoteFallbacks.Add(int64(len(remote)))
		c.fetch(remote, lists[k:])
		return
	}
	var charged int
	for i, v := range remote {
		lists[k+i] = c.shared.absorb(v, lists[k+i])
		if first[i] {
			charged++
		}
	}
	c.chargeBatch(len(remote), charged)
}

// fetch runs steps 2–6 of admit for ids: one backend batch fetch, then per
// node the restriction, publication and first-access test-and-set, then
// one charge.
func (c *Client) fetch(ids []int32, lists [][]int32) {
	var calls, charged int
	var failed []bool
	var err error
	if c.fb != nil {
		failed = grow(&c.batchFailed, len(ids))
		err = c.fb.NeighborsBatchCtx(c.ctx, ids, lists, failed)
	} else {
		c.net.be.NeighborsBatch(ids, lists)
	}
	for i, v := range ids {
		if err != nil && failed[i] {
			lists[i] = nil
			c.noteFetchError(err)
			continue
		}
		if c.net.restriction != nil {
			lists[i] = c.net.restriction.Apply(lists[i], int(v), c.rng)
		}
		if c.cacheable {
			if c.shared != nil {
				lists[i] = c.shared.store(v, lists[i])
			} else {
				c.l1Store(v, lists[i])
			}
		}
		if c.markQueried(v) {
			charged++
		}
		calls++
	}
	c.chargeBatch(calls, charged)
}

// splitOwned stably reorders ids so the ones this worker's partition owns
// come first and returns how many there are.
func (c *Client) splitOwned(p *Partition, ids []int32) (owned int) {
	remote := c.remoteIDs[:0]
	for _, v := range ids {
		if p.Owns(v) {
			ids[owned] = v
			owned++
		} else {
			remote = append(remote, v)
		}
	}
	c.remoteIDs = remote
	copy(ids[owned:], remote)
	return owned
}

// l1Store installs nbr as v's list in the private L1.
func (c *Client) l1Store(v int32, nbr []int32) {
	pi := uint32(v) >> l1Shift
	pg := c.l1[pi]
	if pg == nil {
		pg = new(l1Page)
		c.l1[pi] = pg
	}
	o := uint32(v) & l1Mask
	pg.nbrs[o] = nbr
	pg.present[o>>6] |= 1 << (o & 63)
}

// chargeBatch meters calls interface calls of which charged were first
// accesses (the shared cache's atomic test-and-set, or the private
// accounting): the fleet meter is charged exactly once per unique node
// under CostUniqueNodes — even when sibling clients race the same frontier.
func (c *Client) chargeBatch(calls, charged int) {
	c.calls += int64(calls)
	c.queries += int64(charged)
	if c.shared != nil {
		c.shared.calls.Add(int64(calls))
		c.shared.queries.Add(int64(charged))
	}
	if c.fastPath {
		return // precomputed: no rate limit installed
	}
	if rl := c.net.rateLimit; rl != nil && rl.PerWindow > 0 {
		for i := 0; i < calls; i++ {
			c.inWindow++
			if c.inWindow > rl.PerWindow {
				c.waited += rl.Window
				c.inWindow = 1
			}
		}
	}
}

// grow returns a length-n slice backed by *buf, growing it on demand.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, 2*n)
	}
	return (*buf)[:n]
}
