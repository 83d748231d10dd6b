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
// demand. A page is allocated — from a process-wide pool, so a long-lived
// service recycles them across jobs — the first time a walk touches its id
// range at that step, so memory is bounded by the visited mass, never by
// the graph's id space. A page stores only its nonzero counters, in id
// order, behind a nonzero bitset that answers the common "no hit" probe on
// its own.
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
// A History is written by one goroutine. The sampling pipeline records a
// batch's walks at the batch barrier, while no estimation worker reads it.
type History struct {
	pages  [][]*histPage // pages[step][node>>histPageShift]
	walks  int
	evRows int
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
// word)].
type histPage struct {
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

// pagePool recycles history pages. Allocating pages is the only steady-
// state allocation of the WS-BW history, and a sampling service churns one
// history per job; Release returns a finished history's pages here, so that
// churn is bounded by the pages a job dirties instead of regrowing from
// zero each time. Pages are zeroed on the way in, keeping the counters'
// backing array for the next owner.
var pagePool = sync.Pool{New: func() any { return new(histPage) }}

func putPage(pg *histPage) {
	*pg = histPage{counts: pg.counts[:0]}
	pagePool.Put(pg)
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// writablePage returns the page covering node at step, allocating it if
// needed.
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
	if pg == nil {
		pg = pagePool.Get().(*histPage)
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

// setEvidence sets evidence bits (step, v) for every v in vs.
func (h *History) setEvidence(step int, vs []int32) {
	row := h.pages[step]
	for _, v := range vs {
		pi, o := uint(v)>>histPageShift, uint(v)&histPageMask
		w, bit := o>>6, uint64(1)<<(o&63)
		if pi < uint(len(row)) && row[pi] != nil {
			row[pi].ev[w] |= bit
			continue
		}
		h.writablePage(step, int(v)).ev[w] |= bit
		row = h.pages[step]
	}
}

// HistRow is the per-step accessor: a view over one step's page directory.
// Row hands it to the WS-BW kernel once per backward step; the
// per-candidate Hits probe is a directory index, a bitset word test, and —
// only for candidates with hits — a popcount and one counter load. It
// aliases the history's state, must be treated as read-only, and involves
// no allocation.
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

// Release returns the history's pages to the pool and empties it. Call it
// only once no goroutine can still be reading the history: a service
// releases a job's history after the run has returned. A released
// history is empty but valid — recording into it again starts from
// scratch.
func (h *History) Release() {
	for _, row := range h.pages {
		for j, pg := range row {
			if pg != nil {
				putPage(pg)
				row[j] = nil
			}
		}
	}
	h.pages = h.pages[:0]
	h.walks, h.evRows = 0, 0
}
