package core

import (
	"fmt"
	"sort"
)

// scalePercentile is the order statistic ScaleBootstrap reports: the paper's
// 10th percentile of the observed ratios (Section 6.3.2).
const scalePercentile = 0.10

// ScaleBootstrap approximates the rejection-sampling scale factor
// min_v p(v)/q(v) from the stream of observed ratios p̂_t(v)/q(v), as
// described in Section 6.3.2: the paper takes the 10th percentile of the
// estimated sampling probabilities. The zero value is ready to use.
type ScaleBootstrap struct {
	// ratios is kept sorted by insertion, so Observe is O(n) memmove and
	// Scale is O(1) — Scale runs once per candidate on the sampling hot
	// path (and in the serial consumer of the parallel pipeline), where a
	// full re-sort per call dominated profiles.
	ratios []float64
}

// Observe records a p̂/q ratio. Non-positive ratios (e.g. a backward
// estimate of exactly 0) are ignored: they carry no scale information.
func (s *ScaleBootstrap) Observe(ratio float64) {
	if ratio <= 0 {
		return
	}
	i := sort.SearchFloat64s(s.ratios, ratio)
	s.ratios = append(s.ratios, 0)
	copy(s.ratios[i+1:], s.ratios[i:])
	s.ratios[i] = ratio
}

// N returns how many ratios have been observed.
func (s *ScaleBootstrap) N() int { return len(s.ratios) }

// Scale returns the current scale-factor approximation. With no
// observations it returns 0 (callers should then accept unconditionally —
// the very first candidate has nothing to be compared against).
func (s *ScaleBootstrap) Scale() float64 {
	if len(s.ratios) == 0 {
		return 0
	}
	idx := int(scalePercentile * float64(len(s.ratios)-1))
	return s.ratios[idx]
}

// AcceptProb returns the acceptance probability β for a candidate with
// estimated sampling probability pHat and target weight q (Equation 5 with
// the bootstrapped scale): β = clamp(scale · q / p̂, 0, 1). A non-positive
// pHat yields 1 — an unobservably rare candidate is always kept.
func (s *ScaleBootstrap) AcceptProb(pHat, q float64) (float64, error) {
	if q <= 0 {
		return 0, fmt.Errorf("core: target weight must be positive, got %v", q)
	}
	if pHat <= 0 {
		return 1, nil
	}
	scale := s.Scale()
	if scale <= 0 {
		return 1, nil
	}
	beta := scale * q / pHat
	if beta > 1 {
		beta = 1
	}
	return beta, nil
}
