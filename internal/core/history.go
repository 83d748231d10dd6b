package core

import (
	"math/bits"
	"sync"

	"repro/internal/osn"
)

// History accumulates, per (node, step) pair, how many of the forward walks
// performed so far visited that node at that step. It feeds the weighted
// sampling heuristic of Section 5.3 (WS-BW, Algorithm 2): backward steps are
// biased toward neighbors that forward walks actually reach, because those
// carry most of the probability mass being estimated.
//
// State lives in fixed-size pages of histPageSize node ids, indexed by a
// per-step page directory (pages[step][node>>histPageShift]) that grows on
// demand. A page is allocated — from a PagePool, so a long-lived service
// recycles them across jobs — the first time a walk touches its id range at
// that step, so memory is bounded by the visited mass, never by the graph's
// id space. A page stores only its nonzero counters, in id order, behind a
// nonzero bitset that answers the common "no hit" probe on its own.
//
// Evidence rows let WS-BW skip the gather of a backward step that can find
// no hit (see backStep). Recording a walk that is at w on step i < t sets
// evidence bits (i, w) and (i, u) for every u ∈ N(w), from the list the
// forward step just fetched. On a symmetric view a walk at a candidate
// c ∈ N(node) therefore set (i, node), so a clear bit proves z = 0 for
// every candidate of node. evRows is the number of leading rows where that
// proof holds; one walk recorded without neighbor lists (RecordWalk) drops
// it to 0.
//
// Snapshot is copy-on-write: it copies only the page directories and shares
// the pages themselves (refcounted). The recorder clones a shared page the
// next time it writes into it, so snapshots are immutable without locks on
// either side.
type History struct {
	pages  [][]*histPage // pages[step][node>>histPageShift]
	walks  int
	evRows int
	pool   *PagePool
}

// Page geometry: 4096 ids per page — two 512 B bitsets, a 128 B rank and
// the nonzero counters, ~1.2 KiB a page.
const (
	histPageShift = 12
	histPageSize  = 1 << histPageShift
	histPageMask  = histPageSize - 1
	histPageWords = histPageSize / 64
)

// histPage holds one histPageSize-id range of one step: the nonzero
// counters of that range, compacted in id order, and the evidence bits.
// rank[w] is the number of nonzero counters in the words before w, so the
// counter of offset o is counts[rank[o>>6] + (nonzero bits below o in its
// word)]. refs counts the directories (live history plus snapshots) that
// reference the page; the recorder may write into a page only while
// refs == 1 and clones it otherwise (copy-on-write). refs is only touched
// by the goroutine that owns the live history and by quiesced Release
// calls, never by concurrent snapshot readers.
type histPage struct {
	refs   int32
	nz     [histPageWords]uint64
	ev     [histPageWords]uint64
	rank   [histPageWords]uint16
	counts []int32
}

// inc increments the counter at offset o and reports whether it was zero.
func (pg *histPage) inc(o uint) (first bool) {
	w, bit := o>>6, uint64(1)<<(o&63)
	r := int(pg.rank[w]) + bits.OnesCount64(pg.nz[w]&(bit-1))
	if pg.nz[w]&bit != 0 {
		pg.counts[r]++
		return false
	}
	pg.nz[w] |= bit
	pg.counts = append(pg.counts, 0)
	copy(pg.counts[r+1:], pg.counts[r:])
	pg.counts[r] = 1
	for i := w + 1; i < histPageWords; i++ {
		pg.rank[i]++
	}
	return true
}

// count returns the counter at offset o, whose nonzero bit is set.
func (pg *histPage) count(o uint) int32 {
	w := o >> 6
	return pg.counts[int(pg.rank[w])+bits.OnesCount64(pg.nz[w]&(1<<(o&63)-1))]
}

// PagePool recycles history pages. Allocating pages is the only steady-
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

// put zeroes a page and returns it to the pool, keeping the counters'
// backing array for the next owner.
func (pp *PagePool) put(pg *histPage) {
	*pg = histPage{counts: pg.counts[:0]}
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
// cloning (copy-on-write) as needed so the caller may write into it.
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
		counts := cl.counts
		*cl = *pg
		cl.refs = 1
		cl.counts = append(counts, pg.counts...)
		pg.refs--
		pg = cl
		row[pi] = pg
	}
	return pg
}

// RecordWalk registers a forward walk path (path[i] = node visited at step
// i). It carries no neighbor lists, so the history's evidence rows stop
// proving anything (evRows = 0) and WS-BW gathers on every step.
func (h *History) RecordWalk(path []int) { h.record(path, nil) }

// record registers path; with a client it also sets evidence rows 0..t-1
// (t = len(path)-1) from the client's cached neighbor lists. The sampler
// passes its client only when the walk fetched every list it stepped from
// on a symmetric view, so the lists read here are the ones already paid
// for. Only a node's first visit at a step sets evidence: the walk that
// counted it first recorded its list, or evRows already excludes the row.
func (h *History) record(path []int, c *osn.Client) {
	for len(h.pages) < len(path) {
		h.pages = append(h.pages, nil)
	}
	rows := 0
	if c != nil {
		rows = len(path) - 1
	}
	if h.walks == 0 || rows < h.evRows {
		h.evRows = rows
	}
	for step, node := range path {
		pg := h.writablePage(step, node)
		if !pg.inc(uint(node)&histPageMask) || step >= rows {
			continue
		}
		h.setEvidence(step, []int32{int32(node)})
		h.setEvidence(step, c.Neighbors(node))
	}
	h.walks++
}

// setEvidence sets evidence bits (step, v) for every v in vs. A bit already
// set is not written again, so a page shared with a snapshot is cloned only
// for a new bit.
func (h *History) setEvidence(step int, vs []int32) {
	row := h.pages[step]
	for _, v := range vs {
		pi, o := uint(v)>>histPageShift, uint(v)&histPageMask
		w, bit := o>>6, uint64(1)<<(o&63)
		if pi < uint(len(row)) && row[pi] != nil {
			pg := row[pi]
			if pg.ev[w]&bit != 0 {
				continue
			}
			if pg.refs == 1 {
				pg.ev[w] |= bit
				continue
			}
		}
		h.writablePage(step, int(v)).ev[w] |= bit
		row = h.pages[step]
	}
}

// HistRow is the per-step accessor: a view over one step's page directory.
// Row hands it to the WS-BW kernel once per backward step; the
// per-candidate Hits probe is a directory index, a bitset word test, and —
// only for candidates with hits — a popcount and one counter load. It
// aliases live state (immutable against a Snapshot), must be treated as
// read-only, and involves no allocation.
type HistRow struct {
	pages []*histPage
}

// page returns the page covering v, or nil for ids beyond the directory or
// in never-touched pages.
func (r HistRow) page(v int) *histPage {
	if pi := uint(v) >> histPageShift; pi < uint(len(r.pages)) {
		return r.pages[pi]
	}
	return nil
}

// Hits returns the number of recorded walks that visited v at this row's
// step.
func (r HistRow) Hits(v int) int32 {
	if pg, o := r.hit(v); pg != nil {
		return pg.count(o)
	}
	return 0
}

// hit returns v's page and offset when v's counter is nonzero, else a nil
// page: the probe WS-BW's gather inlines per candidate.
func (r HistRow) hit(v int) (*histPage, uint) {
	pg := r.page(v)
	o := uint(v) & histPageMask
	if pg == nil || pg.nz[o>>6]&(1<<(o&63)) == 0 {
		return nil, 0
	}
	return pg, o
}

// evident reports evidence bit (row, v): false proves, within the history's
// evRows, that no recorded walk visited v or a neighbor of v at this step.
func (r HistRow) evident(v int) bool {
	pg := r.page(v)
	o := uint(v) & histPageMask
	return pg != nil && pg.ev[o>>6]&(1<<(o&63)) != 0
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
	s := &History{walks: h.walks, evRows: h.evRows, pool: h.pool}
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
	h.walks, h.evRows = 0, 0
}
