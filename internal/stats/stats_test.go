package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestLInfAndTV(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0.25, 0.25, 0.5}
	linf, err := LInf(p, q)
	if err != nil || math.Abs(linf-0.5) > 1e-12 {
		t.Fatalf("LInf = %v, %v", linf, err)
	}
	if _, err := LInf(p, q[:2]); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestKL(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	got, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*math.Log(2) + 0.5*math.Log(2.0/3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("KL = %v, want %v", got, want)
	}
	// Identity.
	if d, _ := KL(p, p); d != 0 {
		t.Fatalf("KL(p,p) = %v", d)
	}
	// Zero q with positive p -> +Inf.
	if d, _ := KL([]float64{1, 0}, []float64{0, 1}); !math.IsInf(d, 1) {
		t.Fatalf("KL with zero support = %v, want +Inf", d)
	}
	// Zero p entries contribute nothing.
	if d, _ := KL([]float64{0, 1}, []float64{0.5, 0.5}); math.Abs(d-math.Log(2)) > 1e-12 {
		t.Fatalf("KL = %v", d)
	}
	if _, err := KL([]float64{-0.5, 1.5}, p); err == nil {
		t.Error("negative probability should error")
	}
	if _, err := KL(p, q[:1]); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestKLSmoothed(t *testing.T) {
	p := []float64{0.7, 0.3}
	q := []float64{1, 0} // unsmoothed KL(p,q) infinite
	d, err := KLSmoothed(p, q, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 1) || math.IsNaN(d) {
		t.Fatalf("smoothed KL = %v", d)
	}
	if _, err := KLSmoothed(p, q, 0); err == nil {
		t.Error("eps=0 should error")
	}
	if _, err := KLSmoothed(p, q[:1], 0.1); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestEmpirical(t *testing.T) {
	p, err := Empirical([]int{0, 1, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 0, 0.25}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("Empirical = %v", p)
		}
	}
	if _, err := Empirical(nil, 4); err == nil {
		t.Error("no samples should error")
	}
	if _, err := Empirical([]int{5}, 4); err == nil {
		t.Error("out-of-range sample should error")
	}
	if _, err := Empirical([]int{0}, 0); err == nil {
		t.Error("n=0 should error")
	}
}

func TestDegreeDescOrderAndReorder(t *testing.T) {
	g := gen.Star(4) // degrees: 3,1,1,1
	order := DegreeDescOrder(g)
	if order[0] != 0 {
		t.Fatalf("hub should come first: %v", order)
	}
	if order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("ties should be by id: %v", order)
	}
	p := []float64{0.7, 0.1, 0.1, 0.1}
	r, err := Reorder(p, order)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 0.7 {
		t.Fatalf("Reorder = %v", r)
	}
	if _, err := Reorder(p, order[:2]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Reorder(p, []int{9, 0, 1, 2}); err == nil {
		t.Error("bad index should error")
	}
}

func TestCDF(t *testing.T) {
	c := CDF([]float64{0.25, 0.25, 0.5})
	if math.Abs(c[2]-1) > 1e-12 || math.Abs(c[0]-0.25) > 1e-12 {
		t.Fatalf("CDF = %v", c)
	}
}

func fold(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(math.Abs(x), 1000) + 1e-3
}

// normalize scales the positive weights w to sum to 1, in place.
func normalize(w []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
}

func TestPropertyDistanceAxioms(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		// Build two distributions from the raw data.
		n := len(raw) / 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			// Fold arbitrary floats (possibly ±Inf/huge) into (0, 1001].
			a[i] = fold(raw[i])
			b[i] = fold(raw[n+i])
		}
		normalize(a)
		normalize(b)
		linf, _ := LInf(a, b)
		linfRev, _ := LInf(b, a)
		tv := 0.0 // total variation, (1/2)·Σ|a_i − b_i|
		for i := range a {
			tv += math.Abs(a[i]-b[i]) / 2
		}
		kl, _ := KL(a, b)
		// Symmetry of LInf/TV; non-negativity of all; TV >= LInf/2;
		// KL >= TV² · 2 (Pinsker, in the direction KL >= 2·TV²).
		if linf != linfRev || linf < 0 || tv < 0 || kl < -1e-12 {
			return false
		}
		if tv < linf/2-1e-12 {
			return false
		}
		if kl < 2*tv*tv-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
