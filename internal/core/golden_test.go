package core

// Cross-commit golden test: every other determinism test compares two runs
// inside one binary, so a change that shifts every run the same way passes
// them all. This one pins absolute values — sample nodes, per-sample steps,
// final query charge and backward steps — for fixed seeds, so a refactor of
// the backward-step kernel must reproduce the draws of the code it replaces.
// On a mismatch the test prints the observed values as a Go literal; only
// paste them into goldenWant when a change is meant to alter the draws.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

type goldenRun struct {
	Nodes, Steps  []int
	Queries, Back int64
}

// goldenWant: the mem and sim pipelines run different worker kernels (the
// scalar loop and the batch kernel) and must agree with each other too.
var goldenWant = map[string]goldenRun{
	"seq": {
		Nodes:   []int{605, 433, 299, 106, 1052, 114, 8, 1952, 392, 1273, 1066, 1066, 765, 1429, 14, 1194},
		Steps:   []int{58, 58, 320, 58, 116, 58, 58, 58, 146, 146, 30, 58, 524, 148, 30, 116},
		Queries: 1346, Back: 1631,
	},
	"mem-par2": goldenPar2,
	"mem-par4": goldenPar4,
	"sim-par2": goldenPar2,
	"sim-par4": goldenPar4,
	// MHRW exercises the self-loop candidate slot; the restricted view
	// (FixedK, deterministic, so cached) is not symmetric and must keep
	// the full WS-BW gather on every step.
	"mhrw-seq": {
		Nodes:   []int{740, 1604, 1874, 1046, 691, 892, 1144, 244, 949, 1293, 1924, 1257, 867, 837, 420, 1478},
		Steps:   []int{58, 58, 58, 58, 290, 378, 348, 348, 176, 436, 58, 118, 204, 174, 58, 58},
		Queries: 1509, Back: 2401,
	},
	"mhrw-par2": {
		Nodes:   []int{978, 479, 1536, 669, 1998, 1704, 933, 1291, 1143, 501, 622, 1120, 1850, 1350, 1772, 1168},
		Steps:   []int{58, 58, 58, 580, 58, 116, 524, 232, 668, 348, 58, 320, 58, 30, 58, 174},
		Queries: 1623, Back: 2968,
	},
	"restricted-seq": {
		Nodes:   []int{102, 559, 1203, 9, 47, 668, 731, 116, 278, 923, 1935, 218, 229, 841, 486, 265},
		Steps:   []int{33, 27, 27, 24, 52, 42, 41, 29, 39, 38, 22, 26, 44, 45, 30, 25},
		Queries: 246, Back: 400,
	},
	"restricted-par2": {
		Nodes:   []int{569, 74, 1005, 403, 14, 1671, 1123, 1865, 274, 17, 242, 45, 443, 1385, 558, 951},
		Steps:   []int{40, 34, 31, 33, 40, 35, 40, 39, 37, 40, 22, 24, 29, 30, 29, 28},
		Queries: 246, Back: 387,
	},
	"mixed": {
		Nodes: []int{605, 433, 299, 106, 1052, 114, 8, 1952, 468, 277, 59, 579, 132, 1775, 9, 1927,
			2, 77, 1937, 384, 886, 1063, 1983, 103},
		Steps: []int{58, 58, 320, 58, 116, 58, 58, 58, 116, 204, 58, 58, 60, 88, 204, 58,
			60, 58, 88, 30, 58, 118, 30, 174},
		Queries: 1412, Back: 1981,
	},
}

var goldenPar2 = goldenRun{
	Nodes:   []int{26, 29, 651, 103, 468, 277, 59, 579, 1775, 9, 1344, 2, 384, 886, 103, 1555},
	Steps:   []int{58, 116, 116, 58, 524, 176, 58, 58, 176, 204, 88, 206, 176, 58, 322, 290},
	Queries: 1468, Back: 2296,
}

var goldenPar4 = goldenRun{
	Nodes:   []int{117, 414, 107, 231, 154, 1436, 1791, 198, 608, 1854, 1235, 1000, 105, 841, 5, 1153},
	Steps:   []int{58, 58, 88, 30, 88, 58, 118, 30, 58, 58, 116, 58, 58, 146, 58, 58},
	Queries: 1179, Back: 980,
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
			UseWeighted:    true,
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
		"mem-par2":        run(mem(), 2, srw),
		"mem-par4":        run(mem(), 4, srw),
		"sim-par2":        run(sim(), 2, srw),
		"sim-par4":        run(sim(), 4, srw),
		"mhrw-seq":        run(mem(), 0, mhrw),
		"mhrw-par2":       run(mem(), 2, mhrw),
		"restricted-seq":  run(mem(), 0, srw, restricted),
		"restricted-par2": run(mem(), 2, srw, restricted),
		// One sampler alternating sequential and parallel calls: each call
		// reads the history the calls before it recorded, and a
		// speculative batch a parallel call discards is never recorded.
		"mixed": calls(mem(), srw, nil, [2]int{8, 0}, [2]int{8, 2}, [2]int{4, 0}, [2]int{4, 2}),
	}
	for _, name := range []string{"seq", "mem-par2", "mem-par4", "sim-par2", "sim-par4",
		"mhrw-seq", "mhrw-par2", "restricted-seq", "restricted-par2", "mixed"} {
		if !reflect.DeepEqual(got[name], goldenWant[name]) {
			t.Errorf("%s: got %#v\nwant %#v", name, got[name], goldenWant[name])
		}
	}
}

// TestGoldenRecordWalkHistory pins the WS-BW picks over a history filled
// only through the public RecordWalk(path), which carries no neighbor
// lists: such a history must keep the full gather on every step. The test
// folds every (node, step) pick of a sweep into one hash, so any change
// to which candidate is drawn, or with what probability, moves it.
func TestGoldenRecordWalkHistory(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	want := map[string]uint64{"SRW": 0xf0923dafd2092d05, "MHRW": 0x43c66440ff7560a4}
	for _, d := range []walk.Design{walk.SRW{}, walk.MHRW{}} {
		rng := rand.New(rand.NewSource(5))
		c := osn.NewClient(osn.NewNetwork(g), osn.CostUniqueNodes, rng)
		h := NewHistory()
		for i := 0; i < 60; i++ {
			h.RecordWalk(walk.Path(c, d, 0, 9, rng))
		}
		e := &Estimator{Client: c, Design: d, Start: 0, Hist: h}
		frng := fastrand.New(9)
		var sum uint64 = 14695981039346656037
		for v := 0; v < g.NumNodes(); v++ {
			nbr := c.Neighbors(v)
			for step := 1; step <= 9; step++ {
				w, pick, err := e.backStep(v, step, nbr, frng)
				if err != nil {
					t.Fatal(err)
				}
				sum = (sum ^ uint64(w)) * 1099511628211
				sum = (sum ^ math.Float64bits(pick)) * 1099511628211
			}
		}
		if sum != want[d.Name()] {
			t.Errorf("%s: pick hash %#x, want %#x", d.Name(), sum, want[d.Name()])
		}
	}
}
