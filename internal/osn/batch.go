package osn

import "slices"

// This file is the batched access path: Client.NeighborsBatch resolves a
// whole frontier of nodes in one pass per layer — one cache scan, one
// backend NeighborsBatch call (one simulated round trip instead of k), and
// one batched charge. Results, caching, and metering are exactly what the
// per-node path would produce for the same frontier; only backend round
// trips are amortized.

// NeighborsBatch fills out[i] with the (possibly restricted) neighbor list
// of vs[i]; len(out) must equal len(vs). Cache misses are resolved in one
// batched pass as described above. The returned lists must not be modified.
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

	// Pass 1: serve cache hits; collect the positions still unresolved.
	// The private probe is inlined; the branch on the tier is predictable.
	pos := c.batchPos[:0]
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
		}
	}
	c.batchPos = pos
	if len(pos) == 0 {
		return
	}

	// Deduplicate the missing ids (duplicate occurrences must behave like
	// the per-node path: first resolves, the rest are warm hits).
	ids := c.batchIDs[:0]
	for _, i := range pos {
		ids = append(ids, vs[i])
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	c.batchIDs = ids

	if cap(c.batchLists) < len(ids) {
		c.batchLists = make([][]int32, len(ids), 2*len(ids))
	}
	lists := c.batchLists[:len(ids)]
	if cap(c.batchFirst) < len(ids) {
		c.batchFirst = make([]bool, len(ids), 2*len(ids))
	}
	first := c.batchFirst[:len(ids)]

	// Pass 2: in a fleet-partitioned cache, route non-owned misses through
	// their shard owners (absorbed + charged with the owners' fleet-first
	// verdicts); only locally-owned ids continue to the backend pass.
	fetch := ids
	if c.shared != nil && c.fastPath {
		if p := c.shared.part.Load(); p != nil && p.Resolver != nil {
			fetch = c.resolvePartitioned(p, fetch)
		}
	}

	// Pass 3: one backend round trip for the remaining misses, restriction
	// applied per node (deterministic restrictions only — checked above;
	// they consume no RNG, so batch order cannot perturb any stream).
	if len(fetch) > 0 {
		fetched := lists[:len(fetch)]
		if c.fb != nil {
			if cap(c.batchFailed) < len(fetch) {
				c.batchFailed = make([]bool, len(fetch), 2*len(fetch))
			}
			bf := c.batchFailed[:len(fetch)]
			if err := c.fb.NeighborsBatchCtx(c.ctx, fetch, fetched, bf); err != nil {
				c.noteFetchError(err)
				// Compact to the elements that succeeded: failures are
				// neither cached nor charged, and resolve to nil in the
				// final pass below.
				k := 0
				for i := range fetch {
					if !bf[i] {
						fetch[k], fetched[k] = fetch[i], fetched[i]
						k++
					}
				}
				fetch, fetched = fetch[:k], fetched[:k]
				if len(fetch) == 0 {
					for _, i := range pos {
						out[i], _ = c.cached(vs[i])
					}
					return
				}
			}
		} else {
			c.net.be.NeighborsBatch(fetch, fetched)
		}
		if !c.fastPath && c.net.restriction != nil {
			for i, v := range fetch {
				fetched[i] = c.net.restriction.Apply(fetched[i], int(v), c.rng)
			}
		}
		// Pass 4: publish each list (a concurrent filler's winning entry is
		// kept), test-and-set its first-access flag, and apply one batched
		// charge.
		for i, v := range fetch {
			c.cache(v, fetched[i])
			first[i] = c.markQueried(v)
		}
		c.chargeBatch(len(fetch), first[:len(fetch)])
	}

	// Final pass: every miss position is now warm in the cache.
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
	// NeighborsBatch needs an out buffer; batchLists is scratch inside it,
	// so Prefetch keeps a dedicated spill of its own.
	out := prefetchOut(&c.prefetchBuf, len(vs))
	c.NeighborsBatch(vs, out)
}

// chargeBatch is the batched form of charge for k nodes fetched from the
// backend, whose first-access flags (the shared cache's atomic
// test-and-set, or the private accounting) are in first[:k]: the fleet
// meter is charged exactly once per unique node under CostUniqueNodes —
// even when sibling clients race the same frontier.
func (c *Client) chargeBatch(k int, first []bool) {
	kk := int64(k)
	c.calls += kk
	if c.shared != nil {
		c.shared.calls.Add(kk)
	}
	var charged int64
	for _, f := range first[:k] {
		if f {
			charged++
		}
	}
	c.queries += charged
	if c.shared != nil {
		c.shared.queries.Add(charged)
	}
	if c.fastPath {
		return // precomputed: no rate limit installed
	}
	if rl := c.net.rateLimit; rl != nil && rl.PerWindow > 0 {
		for i := 0; i < k; i++ {
			c.inWindow++
			if c.inWindow > rl.PerWindow {
				c.waited += rl.Window
				c.inWindow = 1
			}
		}
	}
}

// prefetchOut returns a length-n slice backed by *buf, growing it on demand.
func prefetchOut(buf *[][]int32, n int) [][]int32 {
	if cap(*buf) < n {
		*buf = make([][]int32, n, 2*n)
	}
	return (*buf)[:n]
}
