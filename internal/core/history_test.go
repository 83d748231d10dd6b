package core

// Tests for the paged History representation: agreement with a dense
// reference on random record/read/snapshot interleavings, copy-on-write
// snapshot semantics under the page pool, and the visited-mass memory
// bound (sparse visits on a 5M-max-id fixture must snapshot in O(visited),
// not O(maxId)).

import (
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

func (h *denseHistory) Snapshot() *denseHistory {
	s := &denseHistory{walks: h.walks}
	s.counts = make([][]int32, len(h.counts))
	for i, row := range h.counts {
		s.counts[i] = append([]int32(nil), row...)
	}
	return s
}

// TestHistoryMatchesDenseReference drives the paged history and the dense
// reference through identical random interleavings of walk recording,
// point reads, and snapshotting, and checks full agreement — both of the
// live histories and of every (snapshot, reference-snapshot) pair at the
// end, after further mutation of the live side.
func TestHistoryMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		paged := NewHistory()
		dense := &denseHistory{}
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
		var snaps []*History
		var denseSnaps []*denseHistory
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // record a walk
				path := make([]int, 1+rng.Intn(12))
				for i := range path {
					path[i] = randomID()
				}
				paged.RecordWalk(path)
				dense.RecordWalk(path)
			case 3: // point reads, including out-of-range probes
				for k := 0; k < 10; k++ {
					node, step := randomID(), rng.Intn(14)-1
					if got, want := paged.Hits(node, step), dense.Hits(node, step); got != want {
						t.Fatalf("trial %d op %d: Hits(%d,%d) = %d, dense reference %d",
							trial, op, node, step, got, want)
					}
				}
			case 4: // snapshot both; retire an old pair sometimes
				snaps = append(snaps, paged.Snapshot())
				denseSnaps = append(denseSnaps, dense.Snapshot())
				if len(snaps) > 3 && rng.Intn(2) == 0 {
					snaps[0].Release() // pages may go back to the pool
					snaps = snaps[1:]
					denseSnaps = denseSnaps[1:]
				}
			}
		}
		if paged.Walks() != dense.walks {
			t.Fatalf("trial %d: Walks = %d, dense reference %d", trial, paged.Walks(), dense.walks)
		}
		for si, snap := range snaps {
			ref := denseSnaps[si]
			if snap.Walks() != ref.walks {
				t.Fatalf("trial %d snapshot %d: Walks = %d, reference %d", trial, si, snap.Walks(), ref.walks)
			}
			for k := 0; k < 200; k++ {
				node, step := randomID(), rng.Intn(14)-1
				if got, want := snap.Hits(node, step), ref.Hits(node, step); got != want {
					t.Fatalf("trial %d snapshot %d: Hits(%d,%d) = %d, reference %d",
						trial, si, node, step, got, want)
				}
			}
		}
		for _, snap := range snaps {
			snap.Release()
		}
		paged.Release()
	}
}

// TestHistoryRowAgainstSnapshot checks that the Row accessor over a
// snapshot is frozen: recording into the live history (forcing
// copy-on-write page clones) must not change what the snapshot's rows
// report.
func TestHistoryRowAgainstSnapshot(t *testing.T) {
	h := NewHistory()
	h.RecordWalk([]int{1, histPageSize + 5, 9})
	snap := h.Snapshot()
	row := snap.Row(1)
	if got := row.Hits(histPageSize + 5); got != 1 {
		t.Fatalf("snapshot row hit = %d, want 1", got)
	}
	// Write into the same page of the same step: must clone, not mutate.
	h.RecordWalk([]int{1, histPageSize + 5, 9})
	h.RecordWalk([]int{1, histPageSize + 6, 9})
	if got := row.Hits(histPageSize + 5); got != 1 {
		t.Fatalf("snapshot row mutated to %d after live writes, want 1", got)
	}
	if got := row.Hits(histPageSize + 6); got != 0 {
		t.Fatalf("snapshot row sees new id: %d, want 0", got)
	}
	if got := h.Hits(histPageSize+5, 1); got != 2 {
		t.Fatalf("live history hit = %d, want 2", got)
	}
	snap.Release()
	// Released snapshot's pages are writable again by the live side.
	h.RecordWalk([]int{1, histPageSize + 5, 9})
	if got := h.Hits(histPageSize+5, 1); got != 3 {
		t.Fatalf("live history hit after release = %d, want 3", got)
	}
}

// TestHistoryPoolReuse checks that Release returns pages to the pool and
// that a subsequent history drawn from the same pool starts empty — stale
// counters from the previous owner must never leak through.
func TestHistoryPoolReuse(t *testing.T) {
	pool := NewPagePool()
	h := NewHistoryIn(pool)
	h.RecordWalk([]int{7, 8, 9})
	snap := h.Snapshot()
	snap.Release()
	h.Release()
	if h.Walks() != 0 || h.Hits(7, 0) != 0 {
		t.Fatalf("released history not empty: walks=%d hits=%d", h.Walks(), h.Hits(7, 0))
	}
	h2 := NewHistoryIn(pool)
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
// distinct (node, step) cells against a 5M-wide id space.
func sparseFixture(h interface{ RecordWalk([]int) }) {
	rng := rand.New(rand.NewSource(5))
	path := make([]int, 16)
	for w := 0; w < 50; w++ {
		for i := range path {
			path[i] = rng.Intn(5_000_000)
		}
		h.RecordWalk(path)
	}
}

// TestHistorySnapshotMemoryBound is the visited-mass regression test:
// snapshotting a sparse 5M-max-id history must allocate O(visited) —
// page directories plus nothing per untouched id — far under the
// O(maxId · walkLength) of the dense layout (~320 MB for this fixture).
func TestHistorySnapshotMemoryBound(t *testing.T) {
	h := NewHistory()
	sparseFixture(h)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 10
	snaps := make([]*History, rounds)
	for i := range snaps {
		snaps[i] = h.Snapshot()
	}
	runtime.ReadMemStats(&after)
	perSnap := (after.TotalAlloc - before.TotalAlloc) / rounds
	// Directory cost: ≤ ~1.5·(5M/4096) pointers per step × 16 steps ≈ 235 KB.
	// Give 4× headroom; the dense layout would need ~320 MB.
	const budget = 1 << 20
	if perSnap > budget {
		t.Fatalf("sparse snapshot allocates %d B, want <= %d B (visited-mass bound)", perSnap, budget)
	}
	for _, s := range snaps {
		s.Release()
	}
	t.Logf("sparse 5M-max-id snapshot: %d B/op", perSnap)
}

// BenchmarkHistorySnapshotSparse records the snapshot cost of the paged
// representation on the sparse 5M-max-id fixture. bytes/op is the
// quantity BENCH_kernels.json tracks for the visited-mass memory
// contract (CI asserts a ≥100× reduction vs the dense baseline below).
func BenchmarkHistorySnapshotSparse(b *testing.B) {
	h := NewHistory()
	sparseFixture(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		b.StopTimer()
		s.Release()
		b.StartTimer()
	}
}

// BenchmarkHistorySnapshotSparseDense is the dense-layout baseline for the
// same fixture: rows dense by max visited id, deep-copied per snapshot —
// the O(maxId · walkLength) cost the paged representation replaces. Run
// with a small -benchtime (each op copies ~320 MB).
func BenchmarkHistorySnapshotSparseDense(b *testing.B) {
	h := &denseHistory{}
	sparseFixture(h)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		sink += s.walks
	}
	_ = sink
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
		UseWeighted: true, BackwardReps: 4, VarianceBudget: 8, Pages: NewPagePool()}, rng)
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
