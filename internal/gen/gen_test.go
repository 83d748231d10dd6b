package gen

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCycle(t *testing.T) {
	g := Cycle(31)
	if g.NumNodes() != 31 || g.NumEdges() != 31 {
		t.Fatalf("Cycle(31): n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if d := g.Diameter(); d != 15 {
		t.Errorf("Cycle(31) diameter = %d, want 15 (paper: floor(31/2))", d)
	}
	for v := 0; v < 31; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("cycle node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestPathAndStar(t *testing.T) {
	p := Path(10)
	if p.NumEdges() != 9 || p.Diameter() != 9 {
		t.Errorf("Path(10): m=%d diam=%d", p.NumEdges(), p.Diameter())
	}
	s := Star(10)
	if s.NumEdges() != 9 || s.Degree(0) != 9 || s.Diameter() != 2 {
		t.Errorf("Star(10): m=%d hub=%d diam=%d", s.NumEdges(), s.Degree(0), s.Diameter())
	}
}

func TestComplete(t *testing.T) {
	g := Complete(8)
	if g.NumEdges() != 28 || g.Diameter() != 1 {
		t.Errorf("Complete(8): m=%d diam=%d", g.NumEdges(), g.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	// Paper: 2^k nodes, k·2^(k-1) edges, diameter k.
	for k := 1; k <= 6; k++ {
		g := Hypercube(k)
		if g.NumNodes() != 1<<k {
			t.Fatalf("Hypercube(%d) nodes = %d", k, g.NumNodes())
		}
		if g.NumEdges() != k*(1<<(k-1)) {
			t.Fatalf("Hypercube(%d) edges = %d, want %d", k, g.NumEdges(), k*(1<<(k-1)))
		}
		if d := g.Diameter(); d != k {
			t.Fatalf("Hypercube(%d) diameter = %d, want %d", k, d, k)
		}
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(31)
	if g.NumNodes() != 31 {
		t.Fatalf("Barbell(31) nodes = %d", g.NumNodes())
	}
	// Two K15 cliques (2·105 edges) + 2 bridge edges.
	if g.NumEdges() != 212 {
		t.Errorf("Barbell(31) edges = %d, want 212", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("barbell must be connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Barbell diameter = %d, want 4 (paper says 3; see gen doc)", d)
	}
	center := 30
	if g.Degree(center) != 2 {
		t.Errorf("center degree = %d, want 2", g.Degree(center))
	}
}

func TestBalancedBinaryTree(t *testing.T) {
	// Height 4 => 31 nodes, diameter 8 (paper: 2h).
	g := BalancedBinaryTree(4)
	if g.NumNodes() != 31 || g.NumEdges() != 30 {
		t.Fatalf("tree n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if d := g.Diameter(); d != 8 {
		t.Errorf("tree diameter = %d, want 8", d)
	}
	if g2 := BinaryTreeN(31); g2.NumNodes() != 31 || g2.Diameter() != 8 {
		t.Errorf("BinaryTreeN(31) should equal balanced tree of height 4")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m := 1000, 7
	g := BarabasiAlbert(n, m, rng)
	if g.NumNodes() != n {
		t.Fatalf("BA nodes = %d", g.NumNodes())
	}
	// Paper's exact-bias graph: 1000 nodes, 6951 edges = m(n-m).
	if g.NumEdges() != m*(n-m) {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), m*(n-m))
	}
	if !g.IsConnected() {
		t.Error("BA graph must be connected")
	}
	if g.MinDegree() < m {
		t.Errorf("BA min degree = %d, want >= %d", g.MinDegree(), m)
	}
	// Scale-free: the max degree should far exceed the average.
	if g.MaxDegree() < 3*int(g.AvgDegree()) {
		t.Errorf("BA max degree %d suspiciously small vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestBarabasiAlbertDeterminism(t *testing.T) {
	g1 := BarabasiAlbert(200, 3, rand.New(rand.NewSource(7)))
	g2 := BarabasiAlbert(200, 3, rand.New(rand.NewSource(7)))
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	for v := 0; v < 200; v++ {
		if g1.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestHolmeKim(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 2000, 4
	plain := HolmeKim(n, m, 0, rng)
	cluster := HolmeKim(n, m, 0.8, rng)
	if plain.NumEdges() != m*(n-m) || cluster.NumEdges() > m*(n-m) {
		t.Fatalf("edge counts: plain=%d cluster=%d budget=%d",
			plain.NumEdges(), cluster.NumEdges(), m*(n-m))
	}
	if !cluster.IsConnected() {
		t.Fatal("Holme-Kim graph must be connected")
	}
	ccPlain := plain.AvgClusteringSampled(400, rng)
	ccTriad := cluster.AvgClusteringSampled(400, rng)
	if ccTriad < 3*ccPlain || ccTriad < 0.1 {
		t.Fatalf("triad formation should raise clustering: %v vs %v", ccTriad, ccPlain)
	}
	for _, f := range []func(){
		func() { HolmeKim(3, 3, 0.5, rng) },
		func() { HolmeKim(10, 2, 1.5, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ErdosRenyiGNM(50, 100, rng)
	if g.NumNodes() != 50 || g.NumEdges() != 100 {
		t.Fatalf("GNM: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	gp := ErdosRenyiGNP(100, 0.1, rng)
	m := gp.NumEdges()
	// E[m] = 495; allow wide slack.
	if m < 300 || m > 700 {
		t.Errorf("GNP edges = %d, outside plausible range", m)
	}
	if g0 := ErdosRenyiGNP(10, 0, rng); g0.NumEdges() != 0 {
		t.Error("GNP p=0 must be empty")
	}
	if g1 := ErdosRenyiGNP(10, 1, rng); g1.NumEdges() != 45 {
		t.Error("GNP p=1 must be complete")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomRegular(50, 4, rng)
	for v := 0; v < 50; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("node %d degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"cycle small", func() { Cycle(2) }},
		{"path zero", func() { Path(0) }},
		{"complete zero", func() { Complete(0) }},
		{"star zero", func() { Star(0) }},
		{"hypercube zero", func() { Hypercube(0) }},
		{"barbell even", func() { Barbell(8) }},
		{"barbell small", func() { Barbell(5) }},
		{"tree negative", func() { BalancedBinaryTree(-1) }},
		{"ba m>=n", func() { BarabasiAlbert(3, 3, rand.New(rand.NewSource(1))) }},
		{"gnm too many", func() { ErdosRenyiGNM(3, 10, rand.New(rand.NewSource(1))) }},
		{"regular odd", func() { RandomRegular(5, 3, rand.New(rand.NewSource(1))) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestModelInstantiate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range AllModels() {
		g, n := m.Instantiate(31, rng)
		if g.NumNodes() != n {
			t.Errorf("%v: reported n=%d, actual %d", m, n, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("%v: instantiated graph not connected", m)
		}
		if m == ModelHypercube && n != 32 {
			t.Errorf("hypercube at 31 should instantiate 32 nodes, got %d", n)
		}
		if m != ModelHypercube && n != 31 {
			t.Errorf("%v at 31 should instantiate 31 nodes, got %d", m, n)
		}
	}
	if s := ModelBarbell.String(); s != "Barbell" {
		t.Errorf("Model string = %q", s)
	}
	if s := Model(99).String(); s != "Model(99)" {
		t.Errorf("unknown model string = %q", s)
	}
}

func TestPropertyModelsConnected(t *testing.T) {
	prop := func(seed int64, sizeRaw uint8) bool {
		n := 8 + int(sizeRaw)%120
		rng := rand.New(rand.NewSource(seed))
		for _, m := range AllModels() {
			g, _ := m.Instantiate(n, rng)
			if !g.IsConnected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
