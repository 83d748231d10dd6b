package core

import "sync"

// History accumulates, per (node, step) pair, how many of the forward walks
// performed so far visited that node at that step. It feeds the weighted
// sampling heuristic of Section 5.3 (WS-BW, Algorithm 2): backward steps are
// biased toward neighbors that forward walks actually reach, because those
// carry most of the probability mass being estimated.
//
// Counters are stored in fixed-size pages of histPageSize node ids, indexed
// by a per-step page directory (pages[step][node>>histPageShift]) that grows
// on demand. A page is allocated — from a PagePool, so a long-lived service
// recycles them across jobs — the first time a walk visits its id range at
// that step, so per-walk memory is bounded by the visited mass (plus one
// directory pointer per histPageSize ids up to the maximum visited id),
// never by the graph's id space: on a multi-million-node graph a walk that
// touches 10k nodes holds KBs of directory and a few MB of pages instead of
// the O(maxId · walkLength) counters of the dense layout this replaces.
//
// Snapshot is copy-on-write: it copies only the page directories and shares
// the pages themselves (refcounted), so snapshot cost is bounded the same
// way. The recorder clones a shared page the next time it writes into it,
// so snapshots are immutable without locks on either side.
//
// Each page carries a nonzero bitset over its counters. Hit pages are
// extremely sparse (at most one nonzero per recorded walk), so the WS-BW
// candidate scan tests the 64×-denser, cache-resident bitset word first and
// touches the wide counter array only for the few candidates that actually
// have hits.
type History struct {
	pages [][]*histPage // pages[step][node>>histPageShift]
	walks int
	pool  *PagePool
}

// Page geometry: 4096 ids per page — 16 KiB of counters plus a 512 B
// nonzero bitset, a few cache pages. Small enough that sparse visits waste
// little, large enough that hub-centric walks stay within a handful of
// pages per step.
const (
	histPageShift = 12
	histPageSize  = 1 << histPageShift
	histPageMask  = histPageSize - 1
	histPageWords = histPageSize / 64
)

// histPage holds the hit counters for one histPageSize-id range at one
// step. refs counts the directories (live history plus snapshots) that
// reference the page; the recorder may write into a page only while
// refs == 1 and clones it otherwise (copy-on-write). refs is only touched
// by the goroutine that owns the live history and by quiesced Release
// calls, never by concurrent snapshot readers — readers touch only counts
// and nz.
type histPage struct {
	refs   int32
	nz     [histPageWords]uint64
	counts [histPageSize]int32
}

// PagePool recycles history pages. Allocating a page is the only steady-
// state allocation of the WS-BW history, and a sampling service churns one
// history per job; drawing pages from a shared pool bounds that churn by
// the pages actually dirtied instead of regrowing from zero each time.
// Safe for concurrent use (it wraps a sync.Pool). The zero value is NOT
// usable; construct with NewPagePool.
type PagePool struct {
	p sync.Pool
}

// NewPagePool returns an empty page pool.
func NewPagePool() *PagePool {
	pp := &PagePool{}
	pp.p.New = func() any { return new(histPage) }
	return pp
}

// get returns a zeroed page with refs = 1 (pages are zeroed on put).
func (pp *PagePool) get() *histPage {
	pg := pp.p.Get().(*histPage)
	pg.refs = 1
	return pg
}

// put zeroes a page and returns it to the pool.
func (pp *PagePool) put(pg *histPage) {
	*pg = histPage{}
	pp.p.Put(pg)
}

// defaultPagePool backs histories constructed without an explicit pool.
var defaultPagePool = NewPagePool()

// NewHistory returns an empty history over the process-wide default page
// pool.
func NewHistory() *History {
	return NewHistoryIn(nil)
}

// NewHistoryIn returns an empty history allocating its pages from pool
// (nil selects the process-wide default). A service passes one shared pool
// so every job's history reuses the pages released by finished jobs.
func NewHistoryIn(pool *PagePool) *History {
	if pool == nil {
		pool = defaultPagePool
	}
	return &History{pool: pool}
}

// writablePage returns the page covering node at step, allocating or
// cloning (copy-on-write) as needed so the caller may increment counters.
func (h *History) writablePage(step, node int) *histPage {
	pi := node >> histPageShift
	row := h.pages[step]
	if pi >= len(row) {
		grown := make([]*histPage, pi+1+pi/2) // slack to amortize regrowth
		copy(grown, row)
		row = grown
		h.pages[step] = row
	}
	pg := row[pi]
	switch {
	case pg == nil:
		pg = h.pool.get()
		row[pi] = pg
	case pg.refs > 1:
		// Shared with one or more snapshots: clone before writing.
		cl := h.pool.get()
		cl.nz = pg.nz
		cl.counts = pg.counts
		pg.refs--
		pg = cl
		row[pi] = pg
	}
	return pg
}

// RecordWalk registers a forward walk path (path[i] = node visited at step i).
func (h *History) RecordWalk(path []int) {
	for len(h.pages) < len(path) {
		h.pages = append(h.pages, nil)
	}
	for step, node := range path {
		pg := h.writablePage(step, node)
		o := uint(node) & histPageMask
		pg.counts[o]++
		pg.nz[o>>6] |= 1 << (o & 63)
	}
	h.walks++
}

// HistRow is the per-step hit-counter accessor: a view over one step's page
// directory. Row hands it to the WS-BW kernel once per backward step; the
// per-candidate Hits probe is a directory index, a bitset word test, and —
// only for candidates with hits — one counter load. It aliases live state
// (immutable against a Snapshot), must be treated as read-only, and
// involves no allocation.
type HistRow struct {
	pages []*histPage
}

// Hits returns the number of recorded walks that visited v at this row's
// step (0 for ids beyond the directory or in never-touched pages).
func (r HistRow) Hits(v int) int32 {
	pi := uint(v) >> histPageShift
	if pi >= uint(len(r.pages)) {
		return 0
	}
	pg := r.pages[pi]
	if pg == nil {
		return 0
	}
	o := uint(v) & histPageMask
	if pg.nz[o>>6]&(1<<(o&63)) == 0 {
		return 0
	}
	return pg.counts[o]
}

// Row returns the hit-counter row for one step. Out-of-range steps yield an
// empty row (Hits = 0 everywhere). Row never allocates.
func (h *History) Row(step int) HistRow {
	if step < 0 || step >= len(h.pages) {
		return HistRow{}
	}
	return HistRow{pages: h.pages[step]}
}

// Hits returns n_{node,step}: how many recorded walks visited node at step.
func (h *History) Hits(node, step int) int {
	if node < 0 {
		return 0
	}
	return int(h.Row(step).Hits(node))
}

// Walks returns n_hw, the number of recorded forward walks.
func (h *History) Walks() int { return h.walks }

// Snapshot returns an immutable copy-on-write view of the history. The
// parallel sampling pipeline hands snapshots to its estimation workers so
// WS-BW reads never race the recorder: the recorder keeps mutating the live
// history while workers read the frozen view, with no locks on either side.
// Only the page directories are copied; pages are shared and refcounted,
// and the recorder clones any shared page before its next write into it —
// so snapshot cost is bounded by the visited mass, not the graph's id
// space.
func (h *History) Snapshot() *History {
	s := &History{walks: h.walks, pool: h.pool}
	if len(h.pages) > 0 {
		s.pages = make([][]*histPage, len(h.pages))
		for i, row := range h.pages {
			if len(row) == 0 {
				continue
			}
			r := make([]*histPage, len(row))
			copy(r, row)
			for _, pg := range r {
				if pg != nil {
					pg.refs++
				}
			}
			s.pages[i] = r
		}
	}
	return s
}

// Release returns the history's pages to its pool (those not still shared
// with a live snapshot — refcounts make sharing safe) and empties it.
// Call it only once no goroutine can still be reading the history or any
// snapshot sharing its pages: the parallel pipeline releases retired
// snapshots at its batch barrier, and a service releases a job's whole
// history tree after the run has returned. A released history is empty but
// valid — recording into it again starts from scratch.
func (h *History) Release() {
	for _, row := range h.pages {
		for j, pg := range row {
			if pg == nil {
				continue
			}
			row[j] = nil
			pg.refs--
			if pg.refs == 0 {
				h.pool.put(pg)
			}
		}
	}
	h.pages = h.pages[:0]
	h.walks = 0
}
