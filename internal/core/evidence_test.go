package core

// Tests for the WS-BW evidence rows: a clear evidence bit must prove z = 0
// on every history the samplers record, the gate must stay off where that
// proof does not hold (restricted views, RecordWalk-only histories), and
// the history a parallel run's workers read must hold exactly the walks of
// the batches it dispatched.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// checkEvidenceSound asserts, for every (row, node) within h's evidence
// rows, that a clear bit means no candidate of node — N(node), plus node
// itself under self-loops — has a hit at that row. It returns the number
// of cells the evidence proved empty.
func checkEvidenceSound(t *testing.T, name string, g *graph.Graph, d walk.Design, h *History, rows int) int {
	t.Helper()
	if h.evRows != rows {
		t.Fatalf("%s: evRows = %d, want %d (gate off)", name, h.evRows, rows)
	}
	proved := 0
	for i := 0; i < h.evRows; i++ {
		row := h.Row(i)
		for v := 0; v < g.NumNodes(); v++ {
			if row.evident(v) {
				continue
			}
			z := 0
			for _, c := range g.Neighbors(v) {
				z += int(row.Hits(int(c)))
			}
			if d.SelfLoops() {
				z += int(row.Hits(v))
			}
			if z != 0 {
				t.Fatalf("%s: row %d node %d: evidence bit clear but z = %d", name, i, v, z)
			}
			proved++
		}
	}
	return proved
}

// TestEvidenceSoundness records histories through every sampler path —
// sequential, parallel and harvest — on a scale-free, a bipartite and a low-conductance graph under
// SRW and MHRW (whose self-loop slot the evidence must cover too).
func TestEvidenceSoundness(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":        gen.BarabasiAlbert(600, 3, rand.New(rand.NewSource(3))),
		"hypercube": gen.Hypercube(8),
		"barbell":   gen.Barbell(41),
	}
	for gname, g := range graphs {
		for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
			name := gname + "/" + d.Name()
			const tlen = 7
			cfg := Config{Design: d, WalkLength: tlen, UseCrawl: true, UseWeighted: true}
			newClient := func(seed int64) *osn.Client {
				return osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, fastrand.New(seed))
			}

			s, err := NewSampler(newClient(1), cfg, fastrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SampleN(6); err != nil {
				t.Fatal(err)
			}
			proved := checkEvidenceSound(t, name+"/seq", g, d, s.hist, tlen)

			p, err := NewSampler(newClient(2), cfg, fastrand.New(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.SampleNParallel(6, 2); err != nil {
				t.Fatal(err)
			}
			checkEvidenceSound(t, name+"/par", g, d, p.hist, tlen)

			hs, err := NewHarvestSampler(newClient(3), cfg, 0, fastrand.New(3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := hs.SampleN(6); err != nil {
				t.Fatal(err)
			}
			checkEvidenceSound(t, name+"/harvest", g, d, hs.hist, tlen)
			t.Logf("%s: %d (row, node) cells proved empty", name, proved)
		}
	}
}

// pickHash folds every (node, step ≤ t) backStep pick of e over g into one
// value.
func pickHash(t *testing.T, e *Estimator, g *graph.Graph, steps int) uint64 {
	t.Helper()
	rng := fastrand.New(9)
	var sum uint64 = 14695981039346656037
	for v := 0; v < g.NumNodes(); v++ {
		nbr := e.Client.Neighbors(v)
		for step := 1; step <= steps; step++ {
			w, pick, err := e.backStep(v, step, nbr, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum = (sum ^ uint64(w)) * 1099511628211
			sum = (sum ^ math.Float64bits(pick)) * 1099511628211
		}
	}
	return sum
}

// TestEvidenceGateScope checks where the gate may act. A history whose
// evidence bits are all wiped while evRows still claims them proves every
// step empty: a symmetric estimator must then draw differently (the gate
// is live), while an estimator on a restricted view must draw exactly as
// over a history that claims no evidence at all — it never reads the bits.
func TestEvidenceGateScope(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, rand.New(rand.NewSource(4)))
	const steps = 6
	rng := fastrand.New(5)
	rec := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, rng)
	wiped, none := NewHistory(), NewHistory()
	for i := 0; i < 40; i++ {
		path := walk.Path(rec, walk.SRW{}, 0, steps, rng)
		wiped.record(path, rec)
		none.RecordWalk(path)
	}
	if wiped.evRows != steps || none.evRows != 0 {
		t.Fatalf("evRows = %d / %d, want %d / 0", wiped.evRows, none.evRows, steps)
	}
	for _, row := range wiped.pages {
		for _, pg := range row {
			if pg != nil {
				pg.ev = [histPageWords]uint64{}
			}
		}
	}
	views := map[string]*osn.Network{
		"symmetric":  osn.NewNetwork(g),
		"restricted": osn.NewNetwork(g, osn.WithRestriction(osn.FixedK{K: 4, Seed: 1})),
	}
	for name, net := range views {
		hash := func(h *History) uint64 {
			c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(6))
			return pickHash(t, &Estimator{Client: c, Design: walk.SRW{}, Hist: h}, g, steps)
		}
		same := hash(wiped) == hash(none)
		if want := name == "restricted"; same != want {
			t.Errorf("%s view: draws over wiped evidence identical to ungated = %v, want %v", name, same, want)
		}
	}
}

// TestEvidenceParallelGolden runs the golden mem-par4 stream on its own, so
// it can be repeated under -race: the producer walks the speculative next
// batch while four workers read the history, and records walks (and their
// evidence) into it only at the batch barrier.
func TestEvidenceParallelGolden(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	rng := rand.New(rand.NewSource(11))
	c := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, rng)
	s, err := NewSampler(c, Config{Design: walk.SRW{}, WalkLength: 9, UseCrawl: true, CrawlHops: 2,
		UseWeighted: true, VarianceBudget: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SampleNParallel(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun{res.Nodes, res.Steps, c.TotalQueries(), s.BackwardSteps()}
	if !reflect.DeepEqual(got, goldenPar4) {
		t.Fatalf("got %#v\nwant %#v", got, goldenPar4)
	}
	if s.hist.evRows != 9 {
		t.Fatalf("evRows = %d, want 9", s.hist.evRows)
	}
}

// TestHistoryHoldsDispatchedBatches checks that a speculative batch the run
// never dispatches never enters the history. Without a crawl table an SRW
// backward walk on a connected graph runs exactly t steps, so with no
// top-up every dispatched candidate — consumed, or estimated after the
// run's last acceptance — costs reps·t backward steps, and BackwardSteps
// counts the dispatched candidates independently of the history.
func TestHistoryHoldsDispatchedBatches(t *testing.T) {
	const tlen, reps = 7, 2
	g := gen.BarabasiAlbert(600, 3, rand.New(rand.NewSource(3)))
	discarded := 0
	for seed := int64(1); seed <= 6; seed++ {
		c := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, fastrand.New(seed))
		s, err := NewSampler(c, Config{Design: walk.SRW{}, WalkLength: tlen, UseWeighted: true,
			BackwardReps: reps}, fastrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range [][2]int{{5, 2}, {3, 1}, {7, 4}} {
			if _, err := s.SampleNParallel(call[0], call[1]); err != nil {
				t.Fatal(err)
			}
			walked, dispatched := int(s.ForwardSteps()/tlen), int(s.BackwardSteps()/(reps*tlen))
			if s.BackwardSteps()%(reps*tlen) != 0 {
				t.Fatalf("seed %d: %d backward steps, not whole candidates of %d", seed, s.BackwardSteps(), reps*tlen)
			}
			if got := s.hist.Walks(); got != dispatched {
				t.Fatalf("seed %d after %v: history holds %d walks, %d candidates dispatched (%d walked)",
					seed, call, got, dispatched, walked)
			}
			if walked > dispatched {
				discarded++
			}
		}
	}
	if discarded == 0 {
		t.Fatal("no run discarded a speculative batch; the check covers only dispatched ones")
	}
}
