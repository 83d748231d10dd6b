package core

import (
	"fmt"

	"repro/internal/osn"
	"repro/internal/walk"
)

// CrawlTable is the initial-crawling heuristic of Section 5.2: the h-hop
// neighborhood of the starting node is crawled once, and the exact sampling
// probabilities p_τ(v) for all τ <= h are computed inside it by forward
// dynamic programming. A backward walk that reaches step τ <= h can then
// terminate immediately with an exact value instead of recursing to step 0,
// which removes the largest variance contributions.
//
// Exactness argument: any τ-step walk from the start stays within the τ-hop
// ball; crawling h hops reveals the full neighbor lists (hence degrees and
// transition probabilities) of every node within distance h, so the DP for
// τ <= h never needs information outside the crawl.
//
// Probabilities are stored as dense per-step rows indexed by node id
// (rows[τ][v] = p_τ(v); ids at or beyond len(rows[τ]) have probability 0),
// so the estimator's per-step Lookup — on the hot path of every backward
// walk — is two array indexings. A welcome side effect vs. the map rows this
// replaced: the DP accumulates in ascending node order, so the computed
// floating-point values are identical across runs.
type CrawlTable struct {
	h     int
	start int
	rows  [][]float64
	size  int // number of nonzero entries, for Size()
}

// BuildCrawlTable crawls the h-hop ball around start through the client
// (paying its queries) and computes the exact p_τ tables for τ = 0..h under
// the given transition design. h must be >= 0; h = 0 yields just the trivial
// p_0 = indicator(start) table.
func BuildCrawlTable(c *osn.Client, d walk.Design, start, h int) (*CrawlTable, error) {
	if h < 0 {
		return nil, fmt.Errorf("core: crawl depth %d must be >= 0", h)
	}
	ct := &CrawlTable{h: h, start: start, rows: make([][]float64, h+1), size: 1}
	row0 := make([]float64, start+1)
	row0[start] = 1
	ct.rows[0] = row0

	// Crawl the ball: query every node within distance h. Each BFS level is
	// issued as one batched prefetch before it is expanded — the level's
	// nodes are queried either way, so the query cost is identical, but the
	// whole frontier costs one locked cache pass and one backend round trip
	// instead of one per node (on a simulated-latency backend this is the
	// difference between h round trips and ball-size round trips).
	var seen idSet
	seen.add(int32(start))
	frontier := []int32{int32(start)}
	for depth := 0; depth <= h && len(frontier) > 0; depth++ {
		c.Prefetch(frontier)
		var next []int32
		for _, u := range frontier {
			for _, w := range c.Neighbors(int(u)) {
				if seen.add(w) && depth+1 <= h {
					next = append(next, w)
				}
			}
		}
		frontier = next
	}

	// Forward DP: p_τ(v) = Σ_w p(w→v)·p_{τ-1}(w). All w in the support of
	// p_{τ-1} are within distance τ-1 <= h-1, so their transition rows are
	// fully known (and cached by the client, costing nothing extra).
	for tau := 1; tau <= h; tau++ {
		prev := ct.rows[tau-1]
		var cur []float64
		add := func(v int32, p float64) {
			if int(v) >= len(cur) {
				grown := make([]float64, int(v)+1+int(v)/2)
				copy(grown, cur)
				cur = grown
			}
			cur[v] += p
		}
		for w, pw := range prev {
			if pw == 0 {
				continue
			}
			nbr := c.Neighbors(w)
			for _, v := range nbr {
				p := d.Prob(c, w, int(v))
				if p > 0 {
					add(v, p*pw)
				}
			}
			// Self-loop mass: designs with explicit self-loops (MHRW), and
			// any design at a stranded degree-0 node, where every walk stays
			// in place (Prob(w,w) = 1 for both SRW and MHRW).
			if d.SelfLoops() || len(nbr) == 0 {
				if p := d.Prob(c, w, w); p > 0 {
					add(int32(w), p*pw)
				}
			}
		}
		for _, p := range cur {
			if p != 0 {
				ct.size++
			}
		}
		ct.rows[tau] = cur
	}
	return ct, nil
}

// Lookup returns the exact p_τ(v) if τ <= h, the table's depth. ok is
// false when τ is beyond the table (the value is then unknown, not zero).
// Nodes absent at a covered step have probability exactly 0 — either they
// lie outside the τ-ball or parity keeps the walk away.
func (ct *CrawlTable) Lookup(v, tau int) (p float64, ok bool) {
	if tau < 0 || tau > ct.h {
		return 0, false
	}
	row := ct.rows[tau]
	if v < 0 || v >= len(row) {
		return 0, true
	}
	return row[v], true
}

// Size returns the number of nonzero (step, node) probabilities stored, for
// diagnostics.
func (ct *CrawlTable) Size() int { return ct.size }

// idSet is a set of node ids kept in bitset pages of histPageSize ids,
// allocated on first touch, so its memory follows the visited mass rather
// than the id space.
type idSet []*[histPageWords]uint64

// add inserts v and reports whether it was absent.
func (s *idSet) add(v int32) bool {
	pi := int(v >> histPageShift)
	for pi >= len(*s) {
		*s = append(*s, nil)
	}
	pg := (*s)[pi]
	if pg == nil {
		pg = new([histPageWords]uint64)
		(*s)[pi] = pg
	}
	o := uint(v) & histPageMask
	if pg[o>>6]&(1<<(o&63)) != 0 {
		return false
	}
	pg[o>>6] |= 1 << (o & 63)
	return true
}
