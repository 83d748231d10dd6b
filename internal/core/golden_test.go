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
		Nodes:   []int{1027, 3, 177, 243, 300, 127, 385, 1455, 101, 2, 1525, 102, 645, 1172, 305, 31},
		Steps:   []int{58, 30, 58, 58, 30, 95, 102, 37, 88, 88, 58, 58, 58, 234, 58, 58},
		Queries: 1156, Back: 952,
	},
	"mem-par2": goldenPar2,
	"mem-par4": goldenPar4,
	"sim-par2": goldenPar2,
	"sim-par4": goldenPar4,
	// MHRW exercises the self-loop candidate slot; the restricted view
	// (FixedK, deterministic, so cached) is not symmetric and must keep
	// the full WS-BW gather on every step.
	"mhrw-seq": {
		Nodes:   []int{130, 988, 599, 314, 1986, 1279, 1284, 953, 67, 534, 1100, 1265, 1001, 1340, 899, 1196},
		Steps:   []int{58, 58, 30, 116, 232, 58, 58, 468, 58, 232, 37, 232, 58, 232, 146, 116},
		Queries: 1430, Back: 1820,
	},
	"mhrw-par2": {
		Nodes:   []int{945, 1120, 1020, 1968, 1717, 1666, 575, 1888, 660, 697, 584, 24, 1034, 1667, 1012, 1579},
		Steps:   []int{58, 58, 58, 30, 58, 320, 58, 116, 566, 58, 232, 232, 174, 204, 58, 146},
		Queries: 1529, Back: 2149,
	},
	"restricted-seq": {
		Nodes:   []int{1624, 1035, 87, 399, 16, 317, 951, 215, 704, 1369, 1145, 495, 1706, 98, 1281, 1037},
		Steps:   []int{29, 30, 33, 18, 30, 29, 30, 46, 31, 35, 32, 38, 26, 35, 48, 28},
		Queries: 245, Back: 374,
	},
	"restricted-par2": {
		Nodes:   []int{201, 152, 181, 690, 1486, 1131, 27, 1356, 791, 1875, 343, 522, 5, 317, 1134, 198},
		Steps:   []int{25, 41, 39, 37, 29, 49, 35, 24, 48, 39, 23, 27, 29, 33, 24, 26},
		Queries: 235, Back: 384,
	},
	"mixed": {
		Nodes: []int{1027, 3, 177, 243, 300, 127, 385, 1455, 14, 56, 65, 385, 815, 236, 233, 118,
			1374, 939, 984, 777, 69, 732, 904, 469},
		Steps: []int{58, 30, 58, 58, 30, 95, 102, 37, 176, 37, 116, 58, 116, 58, 183, 204,
			116, 58, 58, 204, 167, 436, 174, 116},
		Queries: 1462, Back: 2317,
	},
	"mixed-refresh": {
		Nodes:   []int{1263, 823, 563, 508, 103, 1357, 1242, 485, 234},
		Steps:   []int{58, 58, 58, 58, 58, 58, 58, 174, 116},
		Queries: 1120, Back: 686,
	},
}

var goldenPar2 = goldenRun{
	Nodes:   []int{1263, 823, 563, 508, 103, 1357, 1469, 70, 333, 288, 1242, 731, 1742, 103, 1543, 1092},
	Steps:   []int{58, 58, 58, 58, 58, 58, 204, 58, 58, 118, 88, 146, 88, 58, 176, 58},
	Queries: 1266, Back: 1295,
}

var goldenPar4 = goldenRun{
	Nodes:   []int{32, 25, 201, 9, 1612, 193, 240, 785, 69, 1393, 114, 1771, 1998, 693, 410, 524},
	Steps:   []int{30, 58, 88, 58, 146, 160, 30, 88, 116, 58, 58, 174, 88, 58, 58, 116},
	Queries: 1259, Back: 1253,
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
		// One sampler alternating sequential and parallel calls: the
		// workers' frozen history must include the walks the sequential
		// calls recorded.
		"mixed": calls(mem(), srw, nil, [2]int{8, 0}, [2]int{8, 2}, [2]int{4, 0}, [2]int{4, 2}),
		// The first parallel call ends with a frozen-history refresh
		// decided for a speculative batch it never dispatches; the next
		// parallel call must still start from that refresh, not from one
		// taken after the sequential call's walks.
		"mixed-refresh": calls(mem(), srw, nil, [2]int{6, 2}, [2]int{1, 0}, [2]int{2, 2}),
	}
	for _, name := range []string{"seq", "mem-par2", "mem-par4", "sim-par2", "sim-par4",
		"mhrw-seq", "mhrw-par2", "restricted-seq", "restricted-par2", "mixed", "mixed-refresh"} {
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
