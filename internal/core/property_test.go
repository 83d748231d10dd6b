package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/mathx"
	"repro/internal/walk"
)

// TestPropertyUnbiasednessRandomGraphs drives the backward estimator across
// randomized graphs, designs, targets, and heuristic combinations, checking
// E[p̃_t(u)] = p_t(u) against the exact oracle within CLT tolerance.
func TestPropertyUnbiasednessRandomGraphs(t *testing.T) {
	prop := func(seed int64, useMHRW, useCrawl, useHist bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := gen.BarabasiAlbert(n, 2, rng)
		c := newClient(g, seed+1)
		start := rng.Intn(n)
		steps := 2 + rng.Intn(4)
		u := rng.Intn(n)

		var d walk.Design = walk.SRW{}
		var m *linalg.Matrix = linalg.NewSRW(g)
		if useMHRW {
			d = walk.MHRW{}
			m = linalg.NewMHRW(g)
		}
		exact := m.DistFrom(start, steps)[u]

		e := &Estimator{Client: c, Design: d, Start: start}
		if useCrawl {
			ct, err := BuildCrawlTable(c, d, start, 1+rng.Intn(2))
			if err != nil {
				return false
			}
			e.Crawl = ct
		}
		if useHist {
			h := NewHistory()
			for i := 0; i < 30; i++ {
				h.RecordWalk(walk.Path(c, d, start, steps, rng))
			}
			e.Hist = h
		}

		const reps = 12000
		var mo mathx.Moments
		for i := 0; i < reps; i++ {
			v, err := e.EstimateOnce(u, steps, rng)
			if err != nil {
				return false
			}
			mo.Add(v)
		}
		se := mo.StdDev() / math.Sqrt(reps)
		return math.Abs(mo.Mean()-exact) <= 6*se+1e-9
	}
	// Fixed quick-check seed: the bound is statistical (6σ), and the default
	// time-derived seed makes the suite flaky roughly once per dozens of runs.
	if err := quick.Check(prop, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCrawlTableIsExact cross-validates crawl tables against the
// oracle on random graphs and designs.
func TestPropertyCrawlTableIsExact(t *testing.T) {
	prop := func(seed int64, useMHRW bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(25)
		g := gen.ErdosRenyiGNP(n, 0.25, rng)
		c := newClient(g, seed+3)
		start := rng.Intn(n)
		h := 1 + rng.Intn(3)

		var d walk.Design = walk.SRW{}
		var m *linalg.Matrix = linalg.NewSRW(g)
		if useMHRW {
			d = walk.MHRW{}
			m = linalg.NewMHRW(g)
		}
		ct, err := BuildCrawlTable(c, d, start, h)
		if err != nil {
			return false
		}
		for tau := 0; tau <= h; tau++ {
			exact := m.DistFrom(start, tau)
			for v := 0; v < n; v++ {
				got, ok := ct.Lookup(v, tau)
				if !ok || math.Abs(got-exact[v]) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
