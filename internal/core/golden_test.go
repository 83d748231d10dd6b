package core

// Cross-commit golden test: every other determinism test compares two runs
// inside one binary, so a change that shifts every run the same way passes
// them all. This one pins absolute values — sample nodes, per-sample steps,
// final query charge and backward steps — for fixed seeds, so a refactor of
// the backward-step kernel must reproduce the draws of the code it replaces.
// On a mismatch the test prints the observed values as a Go literal; only
// paste them into goldenWant when a change is meant to alter the draws.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

type goldenRun struct {
	Nodes, Steps  []int
	Queries, Back int64
}

// goldenWant pins one entry per spec, drawn at width 1. Draw version 4
// re-pinned every entry to the value draw version 3 drew with UseWeighted
// off; version 5 left them as they were. "mixed" is one SampleN(24).
var goldenWant = map[string]goldenRun{
	"seq": {
		Nodes:   []int{605, 433, 1371, 299, 106, 8, 1952, 392, 1273, 1066, 953, 765, 14, 334, 89, 1264},
		Steps:   []int{58, 58, 58, 262, 58, 232, 58, 146, 146, 30, 494, 88, 206, 146, 58, 322},
		Queries: 1413, Back: 1988,
	},
	// MHRW exercises the self-loop candidate slot; the restricted view
	// (FixedK, deterministic, so cached) is not symmetric, so every
	// transition weight takes the membership scan.
	"mhrw-seq": {
		Nodes:   []int{740, 1604, 1874, 1046, 691, 892, 1144, 244, 949, 1293, 1924, 1257, 631, 867, 837, 420},
		Steps:   []int{58, 58, 58, 58, 262, 378, 292, 348, 204, 436, 58, 174, 118, 58, 174, 58},
		Queries: 1498, Back: 2324,
	},
	"restricted-seq": {
		Nodes:   []int{102, 559, 1203, 9, 47, 668, 731, 116, 278, 923, 1935, 218, 229, 841, 486, 265},
		Steps:   []int{33, 29, 27, 24, 46, 31, 41, 29, 39, 36, 22, 28, 44, 45, 30, 25},
		Queries: 242, Back: 385,
	},
	"mixed": {
		Nodes: []int{605, 433, 1371, 299, 106, 8, 1952, 392, 1273, 1066, 953, 765, 14, 334, 89, 1264,
			56, 1282, 17, 916, 1746, 768, 84, 51},
		Steps: []int{58, 58, 58, 262, 58, 232, 58, 146, 146, 30, 494, 88, 206, 146, 58, 322,
			116, 174, 116, 30, 116, 234, 58, 58},
		Queries: 1520, Back: 2737,
	},
}

// goldenWide pins the runs at other widths: each draws its spec's Nodes
// and Steps, but pays its own Queries and Back, because speculation
// charges by width. The mem and sim pipelines run different worker
// kernels (the scalar loop and the batch kernel) and must agree with each
// other too. "mixed" alternates sequential and parallel calls on one
// sampler: each call continues the sampler stream and the scale bootstrap
// the calls before it left.
var goldenWide = map[string]struct {
	spec          string
	Queries, Back int64
}{
	"mem-par2":        {"seq", 1413, 1988},
	"mem-par4":        {"seq", 1413, 1988},
	"sim-par2":        {"seq", 1413, 1988},
	"sim-par4":        {"seq", 1413, 1988},
	"mhrw-par2":       {"mhrw-seq", 1517, 2492},
	"restricted-par2": {"restricted-seq", 242, 385},
	"mixed-calls":     {"mixed", 1561, 3276},
}

func TestGoldenSampleStreams(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	// calls runs SampleN (workers 0) or SampleNParallel calls in turn on
	// one sampler and concatenates their streams.
	calls := func(be osn.Backend, d walk.Design, opts []osn.Option, seq ...[2]int) goldenRun {
		t.Helper()
		rng := rand.New(rand.NewSource(11))
		c := osn.NewClient(osn.NewNetworkOn(be, opts...), osn.CostUniqueNodes, rng)
		s, err := NewSampler(c, Config{
			Design:         d,
			Start:          0,
			WalkLength:     9,
			UseCrawl:       true,
			CrawlHops:      2,
			VarianceBudget: 4,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var out goldenRun
		for _, call := range seq {
			n, workers := call[0], call[1]
			var res walk.Result
			if workers == 0 {
				res, err = s.SampleN(n)
			} else {
				res, err = s.SampleNParallel(n, workers)
			}
			if err != nil {
				t.Fatal(err)
			}
			out.Nodes = append(out.Nodes, res.Nodes...)
			out.Steps = append(out.Steps, res.Steps...)
		}
		out.Queries, out.Back = c.TotalQueries(), s.BackwardSteps()
		return out
	}
	run := func(be osn.Backend, workers int, d walk.Design, opts ...osn.Option) goldenRun {
		t.Helper()
		return calls(be, d, opts, [2]int{16, workers})
	}
	sim := func() osn.Backend {
		return osn.NewRemoteSim(osn.NewMemBackend(g), 20*time.Microsecond, 5*time.Microsecond, 64)
	}
	mem := func() osn.Backend { return osn.NewMemBackend(g) }
	srw, mhrw := walk.SRW{}, walk.MHRW{}
	restricted := osn.WithRestriction(osn.FixedK{K: 5, Seed: 99})
	got := map[string]goldenRun{
		"seq":             run(mem(), 0, srw),
		"mixed":           calls(mem(), srw, nil, [2]int{24, 0}),
		"mem-par2":        run(mem(), 2, srw),
		"mem-par4":        run(mem(), 4, srw),
		"sim-par2":        run(sim(), 2, srw),
		"sim-par4":        run(sim(), 4, srw),
		"mhrw-seq":        run(mem(), 0, mhrw),
		"mhrw-par2":       run(mem(), 2, mhrw),
		"restricted-seq":  run(mem(), 0, srw, restricted),
		"restricted-par2": run(mem(), 2, srw, restricted),
		"mixed-calls":     calls(mem(), srw, nil, [2]int{8, 0}, [2]int{8, 2}, [2]int{4, 0}, [2]int{4, 2}),
	}
	for name, want := range goldenWant {
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("%s: got %#v\nwant %#v", name, got[name], want)
		}
	}
	for name, w := range goldenWide {
		want := goldenWant[w.spec]
		want.Queries, want.Back = w.Queries, w.Back
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("%s: got %#v\nwant %#v", name, got[name], want)
		}
	}
}

// TestUseWeightedIsNoOp pins Config.UseWeighted as accepted and inert:
// with it on and off a sampler draws the same nodes and steps, charges the
// same queries and walks the same backward steps, on every path the
// golden streams cover.
func TestUseWeightedIsNoOp(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	restricted := osn.WithRestriction(osn.FixedK{K: 5, Seed: 99})
	for _, tc := range []struct {
		name    string
		d       walk.Design
		workers int
		opts    []osn.Option
	}{
		{"seq", walk.SRW{}, 1, nil},
		{"par2", walk.SRW{}, 2, nil},
		{"mhrw-seq", walk.MHRW{}, 1, nil},
		{"mhrw-par2", walk.MHRW{}, 2, nil},
		{"restricted-seq", walk.SRW{}, 1, []osn.Option{restricted}},
		{"restricted-par2", walk.SRW{}, 2, []osn.Option{restricted}},
	} {
		run := func(weighted bool) goldenRun {
			rng := rand.New(rand.NewSource(11))
			c := osn.NewClient(osn.NewNetworkOn(osn.NewMemBackend(g), tc.opts...), osn.CostUniqueNodes, rng)
			s, err := NewSampler(c, Config{Design: tc.d, WalkLength: 9, UseCrawl: true, CrawlHops: 2,
				UseWeighted: weighted, VarianceBudget: 4}, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.SampleNParallel(16, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			return goldenRun{res.Nodes, res.Steps, c.TotalQueries(), s.BackwardSteps()}
		}
		if on, off := run(true), run(false); !reflect.DeepEqual(on, off) {
			t.Errorf("%s: UseWeighted on %#v\noff %#v", tc.name, on, off)
		}
	}
}
