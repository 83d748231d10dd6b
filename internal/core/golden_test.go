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
	run := func(be osn.Backend, workers int) goldenRun {
		t.Helper()
		rng := rand.New(rand.NewSource(11))
		c := osn.NewClient(osn.NewNetworkOn(be), osn.CostUniqueNodes, rng)
		s, err := NewSampler(c, Config{
			Design:         walk.SRW{},
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
		var res walk.Result
		if workers == 0 {
			res, err = s.SampleN(16)
		} else {
			res, err = s.SampleNParallel(16, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		return goldenRun{res.Nodes, res.Steps, c.TotalQueries(), s.BackwardSteps()}
	}
	sim := func() osn.Backend {
		return osn.NewRemoteSim(osn.NewMemBackend(g), 20*time.Microsecond, 5*time.Microsecond, 64)
	}
	got := map[string]goldenRun{
		"seq":      run(osn.NewMemBackend(g), 0),
		"mem-par2": run(osn.NewMemBackend(g), 2),
		"mem-par4": run(osn.NewMemBackend(g), 4),
		"sim-par2": run(sim(), 2),
		"sim-par4": run(sim(), 4),
	}
	for _, name := range []string{"seq", "mem-par2", "mem-par4", "sim-par2", "sim-par4"} {
		if !reflect.DeepEqual(got[name], goldenWant[name]) {
			t.Errorf("%s: got %#v\nwant %#v", name, got[name], goldenWant[name])
		}
	}
}
