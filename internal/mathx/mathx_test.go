package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertWm1KnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{-OneOverE, -1},
		{-2 * math.Exp(-2), -2}, // W-1(-2e^-2) = -2
		{-5 * math.Exp(-5), -5},
	}
	for _, c := range cases {
		got := LambertWm1(c.x)
		if math.Abs(got-c.want) > 1e-10 {
			t.Errorf("LambertWm1(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLambertWDomains(t *testing.T) {
	if !math.IsNaN(LambertWm1(-1)) {
		t.Error("W-1(-1) should be NaN")
	}
	if !math.IsNaN(LambertWm1(0.5)) {
		t.Error("W-1(0.5) should be NaN")
	}
	if !math.IsNaN(LambertWm1(0)) {
		t.Error("W-1(0) should be NaN")
	}
	if !math.IsNaN(LambertWm1(math.NaN())) {
		t.Error("W-1(NaN) should be NaN")
	}
}

func TestPropertyLambertWInverse(t *testing.T) {
	// W-1: for any w <= -1, LambertWm1(w e^w) == w.
	prop1 := func(raw float64) bool {
		w := -1 - math.Mod(math.Abs(raw), 30) // w in (-31, -1]
		x := w * math.Exp(w)
		if x >= 0 { // extreme underflow; skip
			return true
		}
		got := LambertWm1(x)
		return math.Abs(got-w) <= 1e-8*(1+math.Abs(w))
	}
	if err := quick.Check(prop1, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKahanSum(t *testing.T) {
	var k KahanSum
	// 1 + 1e-16 added 1e5 times loses precision with naive summation.
	k.Add(1)
	for i := 0; i < 100000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-11
	if math.Abs(k.Sum()-want) > 1e-18 {
		t.Errorf("KahanSum = %.20f, want %.20f", k.Sum(), want)
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
	if math.Abs(m.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", m.Variance(), 32.0/7.0)
	}
	if math.Abs(m.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", m.StdDev())
	}
	var empty Moments
	if empty.Mean() != 0 || empty.Variance() != 0 {
		t.Error("empty moments should be 0")
	}
}

func TestMeanHarmonicMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}
