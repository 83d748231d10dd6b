package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyOptions keeps experiment smoke tests fast. Scale 0.06 keeps the
// surrogates large enough that unique-query accounting does not saturate the
// whole graph within a trial (which would mask cost differences).
func tinyOptions() Options {
	return Options{
		Seed:        7,
		Scale:       0.06,
		Trials:      3,
		Samples:     25,
		BiasSamples: 4000,
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	maxS, minS := r.Series[0], r.Series[1]
	if len(maxS.Points) != 80 || len(minS.Points) != 80 {
		t.Fatalf("points = %d/%d", len(maxS.Points), len(minS.Points))
	}
	// Max starts near 1 and decreases sharply; min starts at 0 and rises.
	if maxS.Points[0].Y < 0.1 {
		t.Error("max prob should start high")
	}
	if minS.Points[0].Y != 0 {
		t.Error("min prob should start at 0")
	}
	last := len(minS.Points) - 1
	if minS.Points[last].Y <= 0 {
		t.Error("min prob should become positive after mixing")
	}
	if maxS.Points[last].Y >= maxS.Points[0].Y {
		t.Error("max prob should decrease")
	}
	// Max >= min everywhere.
	for i := range maxS.Points {
		if maxS.Points[i].Y < minS.Points[i].Y {
			t.Fatalf("max < min at t=%d", i+1)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d, want 5 models", len(r.Series))
	}
	for _, s := range r.Series {
		// Infinite cost early, then a dip, then growth (check: finite min
		// strictly below the final point).
		minY, minIdx := math.Inf(1), -1
		for i, p := range s.Points {
			if p.Y < minY {
				minY, minIdx = p.Y, i
			}
		}
		if math.IsInf(minY, 1) {
			t.Fatalf("%s: no finite cost", s.Name)
		}
		lastY := s.Points[len(s.Points)-1].Y
		if lastY <= minY {
			t.Errorf("%s: cost should rise past the optimum (min %v at t=%d, last %v)",
				s.Name, minY, minIdx+1, lastY)
		}
		if !math.IsInf(s.Points[0].Y, 1) {
			t.Errorf("%s: cost at t=1 should be infinite (below diameter)", s.Name)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d", len(r.Series))
	}
	byName := map[string]Series{}
	for _, s := range r.Series {
		byName[s.Name] = s
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 100 {
				t.Fatalf("%s: saving %v%% out of range", s.Name, p.Y)
			}
		}
	}
	// Figure 3's qualitative claims: the cycle's saving declines with size
	// and ends weakest (within a small fluctuation tolerance for the random
	// BA model); the barbell's saving grows with size.
	cyc := byName["Cycle"].Points
	bar := byName["Barbell"].Points
	cLast := cyc[len(cyc)-1]
	if cyc[0].Y-cLast.Y < 10 {
		t.Errorf("cycle saving should decline with size: %v -> %v", cyc[0].Y, cLast.Y)
	}
	for name, s := range byName {
		if name == "Cycle" {
			continue
		}
		if last := s.Points[len(s.Points)-1]; last.Y < cLast.Y-2 {
			t.Errorf("%s saving %v well below cycle %v", name, last.Y, cLast.Y)
		}
	}
	if bLast := bar[len(bar)-1]; bLast.Y <= bar[0].Y {
		t.Errorf("barbell saving should grow with size: %v -> %v", bar[0].Y, bLast.Y)
	}
}

func TestFig5Shape(t *testing.T) {
	o := tinyOptions()
	r, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	srw, we := r.Series[0], r.Series[1]
	last := len(we.Points) - 1
	// WE cost explodes with the diameter; SRW's Geweke cost stays modest.
	if we.Points[last].Y <= we.Points[0].Y {
		t.Errorf("WE steps should grow with diameter: %v -> %v", we.Points[0].Y, we.Points[last].Y)
	}
	growthWE := we.Points[last].Y / we.Points[0].Y
	growthSRW := srw.Points[last].Y / srw.Points[0].Y
	if growthWE <= growthSRW {
		t.Errorf("WE growth %vx should exceed SRW growth %vx", growthWE, growthSRW)
	}
}

func TestFig6WEBeatsBaseline(t *testing.T) {
	o := tinyOptions()
	rs, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("panels = %d", len(rs))
	}
	for _, r := range rs {
		if len(r.Series) != 2 {
			t.Fatalf("%s: series = %d", r.Title, len(r.Series))
		}
		for _, s := range r.Series {
			if len(s.Points) != o.samples() {
				t.Fatalf("%s/%s: points = %d", r.Title, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if p.X < 0 || math.IsNaN(p.Y) {
					t.Fatalf("%s/%s: bad point %+v", r.Title, s.Name, p)
				}
			}
		}
	}
	// Headline claim: WE is cheaper early (before unique-query accounting
	// saturates the miniature graph) and at least as accurate at the end.
	cheaper, accurate := 0, 0
	for _, r := range rs {
		base, we := r.Series[0], r.Series[1]
		if we.Points[9].X < base.Points[9].X {
			cheaper++
		}
		if we.Points[len(we.Points)-1].Y <= base.Points[len(base.Points)-1].Y {
			accurate++
		}
	}
	if cheaper < 3 {
		t.Errorf("WE cheaper at sample 10 in only %d/4 panels", cheaper)
	}
	if accurate < 3 {
		t.Errorf("WE at least as accurate in only %d/4 panels", accurate)
	}
}

func TestFig9AblationOrdering(t *testing.T) {
	o := tinyOptions()
	rs, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("panels = %d", len(rs))
	}
	for _, r := range rs {
		names := []string{"WE-None", "WE-Crawl"}
		if len(r.Series) != len(names) {
			t.Fatalf("%s: series = %d, want %d variants", r.Title, len(r.Series), len(names))
		}
		for i, s := range r.Series {
			if s.Name != names[i] {
				t.Fatalf("%s: series %d = %s, want %s", r.Title, i, s.Name, names[i])
			}
		}
	}
}

func TestFig11PanelsAndSizes(t *testing.T) {
	o := tinyOptions()
	rs, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if len(rs[0].Series) != 6 || len(rs[1].Series) != 6 {
		t.Fatalf("series = %d/%d, want 6 (SRW+WE at 3 sizes)", len(rs[0].Series), len(rs[1].Series))
	}
	for _, s := range rs[1].Series {
		if s.Points[0].X != 1 {
			t.Fatalf("samples axis should start at 1, got %v", s.Points[0].X)
		}
	}
}

func TestTable1WEBeatsSRW(t *testing.T) {
	o := tinyOptions()
	r, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("rows = %d", len(r.Series))
	}
	srw, we := r.Series[0], r.Series[1]
	srwKL, weKL := srw.Points[1].Y, we.Points[1].Y
	if weKL >= srwKL {
		t.Errorf("Table 1 headline: WE KL %v should beat SRW KL %v", weKL, srwKL)
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Y < 0 || math.IsInf(p.Y, 0) || math.IsNaN(p.Y) {
				t.Fatalf("distance %v invalid", p.Y)
			}
		}
	}
}

func TestFig12Distributions(t *testing.T) {
	o := tinyOptions()
	rs, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if len(r.Series) != 3 {
			t.Fatalf("%s: series = %d", r.Title, len(r.Series))
		}
	}
	// CDFs end at ~1.
	for _, s := range rs[1].Series {
		last := s.Points[len(s.Points)-1].Y
		if math.Abs(last-1) > 1e-9 {
			t.Errorf("%s CDF ends at %v", s.Name, last)
		}
	}
	// PDF ordered by degree-descending: theoretical pdf non-increasing.
	theo := rs[0].Series[0]
	for i := 1; i < len(theo.Points); i++ {
		if theo.Points[i].Y > theo.Points[i-1].Y+1e-12 {
			t.Fatal("theoretical PDF must be non-increasing in degree order")
		}
	}
}

func TestOneLongRunStudy(t *testing.T) {
	o := tinyOptions()
	r, err := OneLongRunStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	long, short := r.Series[0], r.Series[1]
	nominal, ess := long.Points[0].Y, long.Points[1].Y
	if ess >= nominal {
		t.Errorf("ESS %v should be below nominal %v (correlated samples)", ess, nominal)
	}
	if short.Points[2].Y < 0 || long.Points[2].Y < 0 {
		t.Error("relative errors must be non-negative")
	}
}

func TestBurnInProfile(t *testing.T) {
	r, err := BurnInProfile(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		// Burn-in grows (weakly) as epsilon shrinks.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y {
				t.Fatalf("%s: burn-in must grow as ε shrinks: %v", s.Name, s.Points)
			}
		}
		last := s.Points[len(s.Points)-1].Y
		if last < 1 {
			t.Fatalf("%s: burn-in %v at tightest ε", s.Name, last)
		}
	}
}

func TestFig7Fig8Panels(t *testing.T) {
	o := Options{Seed: 5, Scale: 0.01, Trials: 2, Samples: 10}
	for name, f := range map[string]func(Options) ([]Result, error){
		"Fig7": Fig7, "Fig8": Fig8, "Fig10": Fig10,
	} {
		rs, err := f(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rs) != 4 {
			t.Fatalf("%s: panels = %d", name, len(rs))
		}
		for _, r := range rs {
			if len(r.Series) != 2 {
				t.Fatalf("%s/%s: series = %d", name, r.Title, len(r.Series))
			}
			for _, s := range r.Series {
				if len(s.Points) != o.Samples {
					t.Fatalf("%s/%s/%s: points = %d", name, r.Title, s.Name, len(s.Points))
				}
				for _, p := range s.Points {
					if math.IsNaN(p.Y) || p.Y < 0 {
						t.Fatalf("%s: bad error value %v", name, p.Y)
					}
				}
			}
		}
	}
}

func TestGewekeSensitivity(t *testing.T) {
	o := tinyOptions()
	r, err := GewekeSensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
	names := []string{"SRW-Z0.1", "SRW-Z0.01", "SRW-Fixed100", "WE"}
	for i, s := range r.Series {
		if s.Name != names[i] {
			t.Fatalf("series %d = %s, want %s", i, s.Name, names[i])
		}
		if len(s.Points) != o.samples() {
			t.Fatalf("%s: points = %d", s.Name, len(s.Points))
		}
	}
	// A stricter threshold (or fixed long burn-in) must cost more queries
	// per sample than the loose default at the first checkpoint.
	loose := r.Series[0].Points[4].X
	strict := r.Series[1].Points[4].X
	if strict < loose {
		t.Errorf("Z<=0.01 cost %v should be >= Z<=0.1 cost %v", strict, loose)
	}
}

func TestHarvestStudy(t *testing.T) {
	o := tinyOptions()
	r, err := HarvestStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	we, hv := r.Series[0], r.Series[1]
	if we.Name != "WE" || hv.Name != "WE-Harvest" {
		t.Fatalf("series names: %s, %s", we.Name, hv.Name)
	}
	// Harvesting amortizes the forward walk: cheaper at the final sample.
	last := len(we.Points) - 1
	if hv.Points[last].X > we.Points[last].X {
		t.Errorf("harvest cost %v should not exceed plain WE %v", hv.Points[last].X, we.Points[last].X)
	}
}

func TestRenderSharedAndDisjoint(t *testing.T) {
	shared := Result{
		Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 2}, {2, 3}}},
			{Name: "b", Points: []Point{{1, 5}, {2, math.Inf(1)}}},
		},
	}
	var buf bytes.Buffer
	if err := shared.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "inf") {
		t.Fatalf("render output missing columns:\n%s", out)
	}
	disjoint := Result{
		Title: "t2", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 2}}},
			{Name: "b", Points: []Point{{9, 5}, {10, 6}}},
		},
	}
	buf.Reset()
	if err := disjoint.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# a") || !strings.Contains(buf.String(), "# b") {
		t.Fatalf("disjoint render broken:\n%s", buf.String())
	}
	empty := Result{Title: "e"}
	buf.Reset()
	if err := empty.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty render should say no data")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 0.25 || o.trials() != 15 || o.samples() != 100 {
		t.Fatal("defaults wrong")
	}
	if o.gewekeThreshold() != 0.1 || o.maxWalkSteps() != 2000 || o.biasSamples() != 200000 {
		t.Fatal("defaults wrong")
	}
	bad := Options{Scale: 2}
	if bad.scale() != 0.25 {
		t.Fatal("invalid scale should fall back")
	}
}
