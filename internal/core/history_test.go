package core

// Tests for the paged History representation: agreement with a dense
// reference on random record/read/sync interleavings, frozen-copy
// semantics of syncTo under the page pool, and the visited-mass memory
// bound (sparse visits on a 5M-max-id fixture must sync in O(visited),
// not O(maxId)).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

// denseHistory is the pre-paging reference implementation: step-indexed
// rows dense by max visited id. It is the semantic oracle the paged
// representation must agree with.
type denseHistory struct {
	counts [][]int32
	walks  int
}

func (h *denseHistory) RecordWalk(path []int) {
	for len(h.counts) < len(path) {
		h.counts = append(h.counts, nil)
	}
	for step, node := range path {
		row := h.counts[step]
		if node >= len(row) {
			grown := make([]int32, node+1)
			copy(grown, row)
			row = grown
			h.counts[step] = row
		}
		row[node]++
	}
	h.walks++
}

func (h *denseHistory) Hits(node, step int) int {
	if step < 0 || step >= len(h.counts) {
		return 0
	}
	row := h.counts[step]
	if node < 0 || node >= len(row) {
		return 0
	}
	return int(row[node])
}

func (h *denseHistory) clone() *denseHistory {
	s := &denseHistory{walks: h.walks}
	s.counts = make([][]int32, len(h.counts))
	for i, row := range h.counts {
		s.counts[i] = append([]int32(nil), row...)
	}
	return s
}

// agreesWithDense checks h against the dense reference: walk counts and
// random probes (out-of-range ones included); with full, also every
// nonzero reference cell through the Row accessor and the number of
// nonzero cells.
func agreesWithDense(t *testing.T, what string, h *History, ref *denseHistory, full bool, randomID func() int, rng *rand.Rand) {
	t.Helper()
	if h.Walks() != ref.walks {
		t.Fatalf("%s: Walks = %d, reference %d", what, h.Walks(), ref.walks)
	}
	for k := 0; k < 50; k++ {
		node, step := randomID(), rng.Intn(14)-1
		if k%10 == 0 {
			node = -1 - rng.Intn(3)
		}
		if got, want := h.Hits(node, step), ref.Hits(node, step); got != want {
			t.Fatalf("%s: Hits(%d,%d) = %d, reference %d", what, node, step, got, want)
		}
	}
	if !full {
		return
	}
	cells := 0
	for step, row := range ref.counts {
		for node, n := range row {
			if n == 0 {
				continue
			}
			cells++
			if got := h.Row(step).Hits(node); got != n {
				t.Fatalf("%s: Row(%d).Hits(%d) = %d, reference %d", what, step, node, got, n)
			}
		}
	}
	nonzero := 0
	for _, row := range h.pages {
		for _, pg := range row {
			if pg != nil {
				for _, w := range pg.nz {
					nonzero += bits.OnesCount64(w)
				}
			}
		}
	}
	if nonzero != cells {
		t.Fatalf("%s: %d nonzero cells, reference %d", what, nonzero, cells)
	}
}

// TestHistoryMatchesDenseReference drives the paged history and the dense
// reference through identical random interleavings of walk recording,
// point reads, releases, and syncs into one frozen history. After every
// op the live history must agree with the reference and the frozen one
// with the reference copy taken at its last sync, so later live writes
// (into the same pages, or growing the directories) stay invisible to it.
// Every cell is compared at each sync, release and trial end; random
// probes in between.
func TestHistoryMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		paged, frozen := NewHistory(), NewHistory()
		dense, frozenRef := &denseHistory{}, &denseHistory{}
		// Id spread crosses several page boundaries; occasionally huge to
		// exercise directory growth.
		randomID := func() int {
			switch rng.Intn(4) {
			case 0:
				return rng.Intn(50)
			case 1:
				return histPageSize - 2 + rng.Intn(5) // straddle page edge
			case 2:
				return rng.Intn(4 * histPageSize)
			default:
				return rng.Intn(200_000)
			}
		}
		for op := 0; op < 300; op++ {
			full := op == 299
			switch rng.Intn(12) {
			case 0: // release both, as Sampler.ReleasePages does
				paged.Release()
				frozen.Release()
				dense, frozenRef = &denseHistory{}, &denseHistory{}
				full = true
			case 1: // sync the frozen history
				paged.syncTo(frozen)
				frozenRef = dense.clone()
				full = true
			default: // record a walk
				path := make([]int, 1+rng.Intn(12))
				for i := range path {
					path[i] = randomID()
				}
				paged.RecordWalk(path)
				dense.RecordWalk(path)
			}
			agreesWithDense(t, fmt.Sprintf("trial %d op %d live", trial, op), paged, dense, full, randomID, rng)
			agreesWithDense(t, fmt.Sprintf("trial %d op %d frozen", trial, op), frozen, frozenRef, full, randomID, rng)
		}
		frozen.Release()
		paged.Release()
	}
}

// TestHistoryPoolReuse checks that Release returns pages to the pool and
// that a subsequent history drawing from it starts empty — stale counters
// from the previous owner, live or frozen, must never leak through.
func TestHistoryPoolReuse(t *testing.T) {
	h, frozen := NewHistory(), NewHistory()
	h.RecordWalk([]int{7, 8, 9})
	h.syncTo(frozen)
	frozen.Release()
	h.Release()
	if h.Walks() != 0 || h.Hits(7, 0) != 0 || frozen.Walks() != 0 || frozen.Hits(8, 1) != 0 {
		t.Fatalf("released histories not empty: walks=%d/%d", h.Walks(), frozen.Walks())
	}
	h2 := NewHistory()
	h2.RecordWalk([]int{7, 100, 9})
	if got := h2.Hits(8, 1); got != 0 {
		t.Fatalf("recycled page leaked stale counter: Hits(8,1) = %d, want 0", got)
	}
	if got := h2.Hits(100, 1); got != 1 {
		t.Fatalf("recycled history lost its own counter: Hits(100,1) = %d, want 1", got)
	}
}

// sparseFixture records sparse walks whose ids reach up to ~5M — the
// multi-million-node regime the paged layout exists for: a few hundred
// distinct (node, step) cells against a 5M-wide id space. It returns the
// largest id recorded.
func sparseFixture(h *History) (maxID int) {
	rng := rand.New(rand.NewSource(5))
	path := make([]int, 16)
	for w := 0; w < 50; w++ {
		for i := range path {
			path[i] = rng.Intn(5_000_000)
			maxID = max(maxID, path[i])
		}
		h.RecordWalk(path)
	}
	return maxID
}

// TestHistorySyncMemoryBound is the visited-mass regression test: the
// first sync of a sparse 5M-max-id history into an empty one must
// allocate O(visited) — a copy of its pages and page directories, nothing
// per untouched id — and at least 100× less than a copy of the dense
// layout, (maxId+1) int32 counters for each of the 16 steps (~320 MB for
// this fixture). A repeat sync with no new walks reuses every page and
// allocates nothing.
func TestHistorySyncMemoryBound(t *testing.T) {
	h := NewHistory()
	maxID := sparseFixture(h)
	dense := uint64(maxID+1) * 16 * 4
	// Each page copy costs at most its struct rounded up to the 1280 B
	// size class plus a small counter array; directories at most their
	// live capacity. Twice the live history's bytes bounds both.
	budget := uint64(2 * historyBytes(h))
	var before, after runtime.MemStats
	frozen := NewHistory()
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.syncTo(frozen)
	runtime.ReadMemStats(&after)
	first := after.TotalAlloc - before.TotalAlloc
	if first > budget {
		t.Fatalf("first sparse sync allocates %d B, want <= %d B (visited-mass bound)", first, budget)
	}
	if first*100 > dense {
		t.Fatalf("first sparse sync allocates %d B, want 100× under the %d B dense copy", first, dense)
	}
	if repeat := testing.AllocsPerRun(10, func() { h.syncTo(frozen) }); repeat != 0 {
		t.Fatalf("repeat sync allocates %.0f times, want 0", repeat)
	}
	for step := 0; step < 16; step++ {
		for _, v := range []int{0, 4_999_999} {
			if frozen.Hits(v, step) != h.Hits(v, step) {
				t.Fatalf("frozen Hits(%d,%d) = %d, live %d", v, step, frozen.Hits(v, step), h.Hits(v, step))
			}
		}
	}
	t.Logf("sparse 5M-max-id first sync: %d B (budget %d B, dense copy %d B, %.0f× smaller)",
		first, budget, dense, float64(dense)/float64(first))
}

// historyBytes is the memory a history holds: its page directories, its
// pages and their counter arrays.
func historyBytes(h *History) int {
	n := 0
	for _, row := range h.pages {
		n += cap(row) * int(unsafe.Sizeof((*histPage)(nil)))
		for _, pg := range row {
			if pg != nil {
				n += int(unsafe.Sizeof(*pg)) + cap(pg.counts)*4
			}
		}
	}
	return n
}

// TestHistoryJobFootprint is the lean-history regression test on the
// benchmark's job shape: BA 50k/5, SRW, t = 13, 2-hop crawl, WS-BW, one
// fresh sampler drawing 24 samples. Its 67 walks leave at most 938
// nonzero counters, yet each row spreads over up to all 13 pages of the id
// space: pages of 4096 dense int32 counters held 2.66 MB (157 pages) on
// this job. The history must hold ≤ 512 KiB, with its evidence rows in use.
func TestHistoryJobFootprint(t *testing.T) {
	g := gen.BarabasiAlbert(50000, 5, fastrand.New(7))
	rng := fastrand.New(11)
	c := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, rng)
	s, err := NewSampler(c, Config{Design: walk.SRW{}, WalkLength: 13, UseCrawl: true, CrawlHops: 2,
		UseWeighted: true, BackwardReps: 4, VarianceBudget: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleN(24); err != nil {
		t.Fatal(err)
	}
	if s.hist.evRows != 13 {
		t.Fatalf("evRows = %d, want 13", s.hist.evRows)
	}
	pages := 0
	for _, row := range s.hist.pages {
		for _, pg := range row {
			if pg != nil {
				pages++
			}
		}
	}
	got := historyBytes(s.hist)
	t.Logf("%d walks: %d pages, %d B of history", s.hist.Walks(), pages, got)
	const budget = 512 << 10
	if got > budget {
		t.Fatalf("job history holds %d B, want <= %d B", got, budget)
	}
}
