// Package mathx provides the numeric kernels the walknotwait library needs
// beyond the standard math package: the secondary real branch W−1 of the
// Lambert W function (used by the paper's Theorem 1 closed form for the
// optimal walk length), compensated summation and streaming moment
// accumulators.
package mathx

import "math"

// OneOverE is 1/e, the left endpoint -1/e of Lambert W's real domain negated.
const OneOverE = 1.0 / math.E

// LambertWm1 evaluates the secondary real branch W−1, the solution w <= -1 of
// w·e^w = x, defined for x in [-1/e, 0). It returns NaN outside the domain.
func LambertWm1(x float64) float64 {
	switch {
	case math.IsNaN(x), x < -OneOverE-1e-15, x >= 0:
		return math.NaN()
	case x <= -OneOverE:
		return -1
	}
	// Initial guess.
	var w float64
	if x < -0.25 {
		p := math.Sqrt(2 * (math.E*x + 1))
		w = -1 - p - p*p/3 - 11.0/72.0*p*p*p
	} else {
		// For x -> 0-, W-1(x) ~ ln(-x) - ln(-ln(-x)).
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	}
	return halley(x, w)
}

// halley refines w toward the root of w·e^w - x with Halley's method.
func halley(x, w float64) float64 {
	for i := 0; i < 60; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			return w
		}
		wp1 := w + 1
		denom := ew*wp1 - (w+2)*f/(2*wp1)
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= 1e-14*(1+math.Abs(w)) {
			return w
		}
	}
	return w
}

// KahanSum accumulates float64 values with Kahan–Babuška compensated
// summation. The zero value is ready to use.
type KahanSum struct {
	sum, c float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// Moments accumulates streaming mean and variance via Welford's algorithm.
// The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates an observation.
func (m *Moments) Add(v float64) {
	m.n++
	d := v - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (v - m.mean)
}

// N returns the number of observations.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum() / float64(len(xs))
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
