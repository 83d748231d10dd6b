package osn

import (
	"sync"
	"sync/atomic"
)

// SharedCache is a concurrency-safe neighbor cache plus unique-node
// accounting that several Clients can attach to (one per worker goroutine).
// Workers crawling the same network through a shared cache stop paying for
// duplicate cache fills: each distinct node is fetched from the network —
// and, in CostUniqueNodes mode, charged — exactly once across all attached
// clients, while every client keeps its own cost meter for the charges it
// incurred itself.
//
// Storage is paged like the Client L1: fixed 256-id pages allocated on first
// touch behind a two-level directory, so memory is bounded by the id ranges
// actually visited, never by the largest id. Reads are wait-free — two
// directory loads, an atomic load of the presence word and the list header —
// so attached clients read the cache directly, with no private L1 in front.
//
// Publication order. A fill takes its page's mutex, writes the list header,
// and only then sets the presence bit; a reader that observes the bit
// therefore observes the list (the atomic store/load pair orders them).
// Lists are never overwritten, so a concurrent filler that finds the bit set
// returns the winner's list and every client shares one slice per node.
//
// Charging. First-access verdicts are an atomic test-and-set on the queried
// bit, independent of the fill: whichever path touches v first — a client
// admitting a miss, an attribute read, or a ResolveOwned on behalf of a
// fleet peer — sees the bit clear and sets it; every later or racing caller
// sees it set. Each node is thus "first" for exactly one caller, so the fleet
// meter is charged once per unique node with no lock around the pair.
//
// The cache stores post-restriction neighbor lists, so it is only consulted
// when the installed Restriction (if any) is deterministic — exactly the
// condition under which a single-threaded Client caches.
type SharedCache struct {
	dir     [sharedDirSize]atomic.Pointer[sharedChunk]
	queries atomic.Int64
	calls   atomic.Int64
	uniq    atomic.Int64 // distinct nodes accessed, for lock-free Stats
	// owned counts distinct nodes first-accessed here whose partition shard
	// this worker owns under the installed partition (all of them when part
	// is nil). Summing owned across a fleet gives the exact distinct-node
	// total regardless of which workers touched which nodes (see
	// partition.go).
	owned atomic.Int64
	// part is the fleet partition, consulted only on the cold miss path.
	part atomic.Pointer[Partition]
	// remoteFallbacks counts non-owned ids served by local fetch because
	// their shard owner was unreachable.
	remoteFallbacks atomic.Int64
}

// Directory geometry: a fixed top level of sharedDirSize chunk pointers, each
// chunk covering sharedChunkSize pages (1M ids), so the whole non-negative
// int32 id space is addressable with no directory regrowth. An empty cache
// costs the 16 KiB top level; each touched million-id range adds a 32 KiB
// chunk.
const (
	sharedChunkShift = 12
	sharedChunkSize  = 1 << sharedChunkShift
	sharedDirSize    = 1 << (31 - l1Shift - sharedChunkShift)
)

type sharedChunk [sharedChunkSize]atomic.Pointer[sharedPage]

// sharedPage holds one 256-id range of the shared cache. nbrs[o] is written
// once, under mu, before bit o of present is set, and never changes after.
type sharedPage struct {
	mu      sync.Mutex // serializes fills of this page
	present [l1Words]atomic.Uint64
	queried [l1Words]atomic.Uint64
	nbrs    [l1Size][]int32
}

// NewSharedCache returns an empty shared neighbor cache. Pages are allocated
// on demand with the node ids actually touched.
func NewSharedCache() *SharedCache {
	return &SharedCache{}
}

// page returns the page covering v, or nil if none has been allocated.
func (sc *SharedCache) page(v int32) *sharedPage {
	pi := uint32(v) >> l1Shift
	if ch := sc.dir[pi>>sharedChunkShift].Load(); ch != nil {
		return ch[pi&(sharedChunkSize-1)].Load()
	}
	return nil
}

// pageFor returns the page covering v, allocating it (and its directory
// chunk) on first touch. Racing allocators agree through CompareAndSwap; the
// loser's fresh page is simply dropped.
func (sc *SharedCache) pageFor(v int32) *sharedPage {
	pi := uint32(v) >> l1Shift
	slot := &sc.dir[pi>>sharedChunkShift]
	ch := slot.Load()
	if ch == nil {
		slot.CompareAndSwap(nil, new(sharedChunk))
		ch = slot.Load()
	}
	ps := &ch[pi&(sharedChunkSize-1)]
	pg := ps.Load()
	if pg == nil {
		ps.CompareAndSwap(nil, new(sharedPage))
		pg = ps.Load()
	}
	return pg
}

// lookup returns the cached neighbor list of v, if present. Wait-free.
func (sc *SharedCache) lookup(v int32) ([]int32, bool) {
	if pg := sc.page(v); pg != nil {
		o := uint32(v) & l1Mask
		if pg.present[o>>6].Load()&(1<<(o&63)) != 0 {
			return pg.nbrs[o], true
		}
	}
	return nil, false
}

// store inserts the neighbor list of v and returns the winning entry: if a
// concurrent client stored v first, its list is returned so all clients
// share one slice.
func (sc *SharedCache) store(v int32, nbr []int32) []int32 {
	pg := sc.pageFor(v)
	o := uint32(v) & l1Mask
	w, bit := &pg.present[o>>6], uint64(1)<<(o&63)
	pg.mu.Lock()
	if w.Load()&bit != 0 {
		nbr = pg.nbrs[o]
	} else {
		pg.nbrs[o] = nbr
		w.Store(w.Load() | bit) // publish only after the list is written
	}
	pg.mu.Unlock()
	return nbr
}

// markQueried records that v has been accessed and reports whether this was
// the first access across all attached clients: an atomic test-and-set on
// v's queried bit, so exactly one of any number of racing callers wins.
func (sc *SharedCache) markQueried(v int32) bool {
	pg := sc.pageFor(v)
	o := uint32(v) & l1Mask
	w, bit := &pg.queried[o>>6], uint64(1)<<(o&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	sc.uniq.Add(1)
	if sc.ownsLocal(sc.part.Load(), v) {
		sc.owned.Add(1)
	}
	return true
}

// Queries returns the total query cost accumulated across all attached
// clients. In CostUniqueNodes mode this equals the number of distinct nodes
// accessed (each unique node is charged exactly once, to the client that
// touched it first).
func (sc *SharedCache) Queries() int64 { return sc.queries.Load() }

// Calls returns the total number of interface calls across all attached
// clients, cached or not.
func (sc *SharedCache) Calls() int64 { return sc.calls.Load() }

// UniqueNodes returns the number of distinct nodes accessed so far across
// all attached clients.
func (sc *SharedCache) UniqueNodes() int { return int(sc.uniq.Load()) }

// CacheStats is a point-in-time snapshot of a SharedCache's fleet-wide
// meters, cheap enough to read on every scrape of a metrics endpoint: a few
// atomic loads, no locks.
type CacheStats struct {
	// Queries is the fleet-wide query cost (the paper's cost axis).
	Queries int64
	// Calls is the total number of interface calls, cached or not.
	Calls int64
	// UniqueNodes is the number of distinct nodes accessed.
	UniqueNodes int64
	// OwnedUnique is the number of distinct partition-owned nodes
	// first-accessed here (== UniqueNodes without a partition). Summed
	// across a fleet it is the exact distinct-node total.
	OwnedUnique int64
	// RemoteFallbacks counts non-owned ids served by local fetch because
	// their shard owner was unreachable (fleet meter approximate if > 0).
	RemoteFallbacks int64
}

// HitRatio returns the fraction of interface calls served without charging a
// new unique node — the cache hit ratio a long-lived service reports. Zero
// before any call.
func (s CacheStats) HitRatio() float64 {
	if s.Calls == 0 {
		return 0
	}
	return 1 - float64(s.Queries)/float64(s.Calls)
}

// Stats returns an atomic snapshot of the fleet-wide meters. The counters
// are loaded independently (not one consistent cut), which is fine for
// monitoring; phase-accurate accounting should quiesce clients first.
func (sc *SharedCache) Stats() CacheStats {
	return CacheStats{
		Queries:         sc.queries.Load(),
		Calls:           sc.calls.Load(),
		UniqueNodes:     sc.uniq.Load(),
		OwnedUnique:     sc.owned.Load(),
		RemoteFallbacks: sc.remoteFallbacks.Load(),
	}
}

// KnownNodes returns the sorted ids of all nodes accessed so far across all
// attached clients (the crawler fleet's combined frontier knowledge). The
// directory walk visits ids in ascending order, so no sort is needed.
func (sc *SharedCache) KnownNodes() []int {
	var out []int
	for ci := range sc.dir {
		ch := sc.dir[ci].Load()
		if ch == nil {
			continue
		}
		for pj := range ch {
			pg := ch[pj].Load()
			if pg == nil {
				continue
			}
			base := (ci<<sharedChunkShift | pj) << l1Shift
			for w := range pg.queried {
				out = appendBits(out, base+w<<6, pg.queried[w].Load())
			}
		}
	}
	return out
}
