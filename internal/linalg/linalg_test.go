package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkRowStochastic verifies every row of m sums to 1 within tol and has
// non-negative entries.
func checkRowStochastic(m *Matrix, tol float64) error {
	for u := 0; u < m.n; u++ {
		_, vals := m.Row(u)
		sum := 0.0
		for _, v := range vals {
			if v < 0 {
				return fmt.Errorf("linalg: negative entry in row %d", u)
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("linalg: row %d sums to %v", u, sum)
		}
	}
	return nil
}

// relPointwiseDist returns the paper's Δ(t) (Definition 3): the maximum
// over all start nodes u and targets v of |T^t(u,v) − π(v)|/π(v), one
// distribution evolution of t steps per start. π entries must be positive.
func relPointwiseDist(m *Matrix, pi []float64, t int) float64 {
	worst := 0.0
	for u := 0; u < m.n; u++ {
		for v, pv := range m.DistFrom(u, t) {
			worst = max(worst, math.Abs(pv-pi[v])/pi[v])
		}
	}
	return worst
}

func TestSRWMatrixSmall(t *testing.T) {
	// Triangle with pendant: 0-1, 1-2, 0-2, 2-3.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	m := NewSRW(g)
	if err := checkRowStochastic(m, 1e-12); err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("T(0,1) = %v, want 0.5", got)
	}
	if got := m.Prob(2, 3); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("T(2,3) = %v, want 1/3", got)
	}
	if got := m.Prob(3, 2); got != 1 {
		t.Errorf("T(3,2) = %v, want 1", got)
	}
	if got := m.Prob(0, 3); got != 0 {
		t.Errorf("T(0,3) = %v, want 0", got)
	}
	if got := m.Prob(0, 0); got != 0 {
		t.Errorf("SRW has no self-loops: T(0,0) = %v", got)
	}
}

func TestMHRWMatrixSmall(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	m := NewMHRW(g)
	if err := checkRowStochastic(m, 1e-12); err != nil {
		t.Fatal(err)
	}
	// Node 2 (deg 3) -> node 3 (deg 1): (1/3)·min(1, 3/1) = 1/3.
	if got := m.Prob(2, 3); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("T(2,3) = %v, want 1/3", got)
	}
	// Node 3 (deg 1) -> node 2 (deg 3): 1·min(1, 1/3) = 1/3; stay 2/3.
	if got := m.Prob(3, 2); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("T(3,2) = %v, want 1/3", got)
	}
	if got := m.Prob(3, 3); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("T(3,3) = %v, want 2/3", got)
	}
	// Node 0 (deg 2) -> 1 (deg 2): 1/2; -> 2 (deg 3): (1/2)·(2/3) = 1/3;
	// stay = 1 - 1/2 - 1/3 = 1/6.
	if got := m.Prob(0, 2); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("T(0,2) = %v, want 1/3", got)
	}
	if got := m.Prob(0, 0); math.Abs(got-1.0/6.0) > 1e-12 {
		t.Errorf("T(0,0) = %v, want 1/6", got)
	}
}

func TestMHRWSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.BarabasiAlbert(60, 3, rng)
	m := NewMHRW(g)
	for u := 0; u < g.NumNodes(); u++ {
		cols, vals := m.Row(u)
		for i, w := range cols {
			if int(w) == u {
				continue
			}
			back := m.Prob(int(w), u)
			if math.Abs(vals[i]-back) > 1e-12 {
				t.Fatalf("MHRW asymmetric: T(%d,%d)=%v, T(%d,%d)=%v", u, w, vals[i], w, u, back)
			}
		}
	}
}

func TestIsolatedNodeSelfLoop(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1) // node 2 isolated
	g := b.Build()
	for _, m := range []*Matrix{NewSRW(g), NewMHRW(g), NewLazy(g, 0.5)} {
		if err := checkRowStochastic(m, 1e-12); err != nil {
			t.Fatal(err)
		}
		if got := m.Prob(2, 2); got != 1 {
			t.Errorf("isolated self-loop = %v, want 1", got)
		}
	}
}

func TestLazyMatrix(t *testing.T) {
	g := gen.Cycle(6)
	m := NewLazy(g, 0.3)
	if err := checkRowStochastic(m, 1e-12); err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(0, 0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("lazy self = %v, want 0.3", got)
	}
	if got := m.Prob(0, 1); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("lazy step = %v, want 0.35", got)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLazy(%v) should panic", bad)
				}
			}()
			NewLazy(g, bad)
		}()
	}
}

func TestLazify(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	m := Lazify(NewMHRW(g), 0.25)
	if err := checkRowStochastic(m, 1e-12); err != nil {
		t.Fatal(err)
	}
	base := NewMHRW(g)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			want := 0.75 * base.Prob(u, v)
			if u == v {
				want += 0.25
			}
			if math.Abs(m.Prob(u, v)-want) > 1e-12 {
				t.Fatalf("Lazify T(%d,%d) = %v, want %v", u, v, m.Prob(u, v), want)
			}
		}
	}
	// Stationary preserved.
	pi := UniformStationary(4)
	next := m.Evolve(pi, 1)
	for v := range pi {
		if math.Abs(next[v]-pi[v]) > 1e-12 {
			t.Fatalf("Lazify broke stationarity at %d", v)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Lazify(1) should panic")
			}
		}()
		Lazify(base, 1)
	}()
}

func TestPropertyRowStochastic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := gen.ErdosRenyiGNP(n, 0.2, rng)
		for _, m := range []*Matrix{NewSRW(g), NewMHRW(g), NewLazy(g, 0.5)} {
			if checkRowStochastic(m, 1e-9) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStationaryFixedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.BarabasiAlbert(80, 3, rng)

	srw := NewSRW(g)
	pi, err := SRWStationary(g)
	if err != nil {
		t.Fatal(err)
	}
	next := srw.Evolve(pi, 1)
	for v := range pi {
		if math.Abs(next[v]-pi[v]) > 1e-12 {
			t.Fatalf("SRW stationary not fixed at %d: %v vs %v", v, next[v], pi[v])
		}
	}

	mhrw := NewMHRW(g)
	u := UniformStationary(g.NumNodes())
	next = mhrw.Evolve(u, 1)
	for v := range u {
		if math.Abs(next[v]-u[v]) > 1e-12 {
			t.Fatalf("MHRW uniform not fixed at %d: %v vs %v", v, next[v], u[v])
		}
	}
}

func TestSRWStationaryEdgeless(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	if _, err := SRWStationary(g); err == nil {
		t.Fatal("expected error for edgeless graph")
	}
}

func TestDistFromSumsToOneAndConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbert(50, 3, rng)
	m := NewLazy(g, 0.2) // lazy to kill periodicity
	pi, _ := SRWStationary(g)
	p := m.DistFrom(0, 200)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("p_200 sums to %v", sum)
	}
	for v := range p {
		if math.Abs(p[v]-pi[v]) > 1e-6 {
			t.Fatalf("p_200[%d] = %v, stationary %v", v, p[v], pi[v])
		}
	}
}

func TestEvolveZeroSteps(t *testing.T) {
	g := gen.Cycle(5)
	m := NewSRW(g)
	p := m.DistFrom(2, 0)
	if p[2] != 1 {
		t.Fatalf("p_0 should be the start indicator, got %v", p)
	}
}

func TestRelPointwiseDistanceDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.BarabasiAlbert(31, 3, rng)
	m := NewLazy(g, 0.1)
	pi, _ := SRWStationary(g)
	d5 := relPointwiseDist(m, pi, 5)
	d50 := relPointwiseDist(m, pi, 50)
	if d50 >= d5 {
		t.Fatalf("Δ(50)=%v should be < Δ(5)=%v", d50, d5)
	}
	if d50 < 0 {
		t.Fatal("distance must be non-negative")
	}
}

func TestBurnIn(t *testing.T) {
	g := gen.Complete(6)
	m := NewMHRW(g)
	pi := UniformStationary(6)
	// K6 MHRW: T = (J-I)/5, so Δ(t) = 5^{-(t-1)} exactly:
	// Δ(1)=1, Δ(2)=0.2, Δ(3)=0.04.
	if b := m.BurnIn(pi, 0.3, 10); b != 2 {
		t.Fatalf("complete-graph burn-in(0.3) = %d, want 2", b)
	}
	if b := m.BurnIn(pi, 0.05, 10); b != 3 {
		t.Fatalf("complete-graph burn-in(0.05) = %d, want 3", b)
	}
	// A long path mixes slowly: must exceed a small tmax.
	gp := gen.Path(30)
	mp := NewLazy(gp, 0.5)
	piP, _ := SRWStationary(gp)
	if b := mp.BurnIn(piP, 0.01, 20); b != 21 {
		t.Fatalf("path burn-in should exceed tmax: got %d", b)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{0.2, 0.1, 0.7})
	if min != 0.1 || max != 0.7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatal("MinMax(nil) should be 0,0")
	}
}

func TestSpectralGapKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.Graph
		want float64 // 1 - s2 with s2 the second-largest algebraic eigenvalue
	}{
		// K_n SRW eigenvalues: 1 and -1/(n-1) -> gap = 1 + 1/(n-1).
		{"complete6", gen.Complete(6), 1 + 1.0/5.0},
		// C_n SRW eigenvalues: cos(2πk/n) -> gap = 1 - cos(2π/n).
		{"cycle8", gen.Cycle(8), 1 - math.Cos(2*math.Pi/8)},
		{"cycle12", gen.Cycle(12), 1 - math.Cos(2*math.Pi/12)},
		// Q_k SRW eigenvalues: 1-2i/k -> gap = 2/k.
		{"hypercube3", gen.Hypercube(3), 2.0 / 3.0},
		{"hypercube4", gen.Hypercube(4), 2.0 / 4.0},
	}
	for _, c := range cases {
		m := NewSRW(c.g)
		pi, err := SRWStationary(c.g)
		if err != nil {
			t.Fatal(err)
		}
		gap, err := m.SpectralGap(pi, 20000, rng)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(gap-c.want) > 1e-6 {
			t.Errorf("%s: gap = %v, want %v", c.name, gap, c.want)
		}
	}
}

func TestSpectralGapLazyShift(t *testing.T) {
	// Lazy walk eigenvalues are alpha + (1-alpha)·s, so
	// gap_lazy = (1-alpha)·gap_srw.
	rng := rand.New(rand.NewSource(6))
	g := gen.Cycle(10)
	pi, _ := SRWStationary(g)
	srwGap, err := NewSRW(g).SpectralGap(pi, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	lazyGap, err := NewLazy(g, 0.5).SpectralGap(pi, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lazyGap-0.5*srwGap) > 1e-6 {
		t.Errorf("lazy gap = %v, want %v", lazyGap, 0.5*srwGap)
	}
}

func TestSpectralGapErrors(t *testing.T) {
	g := gen.Cycle(4)
	m := NewSRW(g)
	rng := rand.New(rand.NewSource(7))
	if _, err := m.SpectralGap([]float64{0.5}, 100, rng); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := m.SpectralGap([]float64{0.5, 0.5, 0, 0}, 100, rng); err == nil {
		t.Error("zero pi entry should error")
	}
	single := NewSRW(graph.NewBuilder(1).Build())
	if _, err := single.SpectralGap([]float64{1}, 100, rng); err == nil {
		t.Error("single state should error")
	}
}
