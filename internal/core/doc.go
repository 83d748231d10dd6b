// Package core implements WALK-ESTIMATE, the paper's primary contribution: a
// swap-in replacement for any random-walk sampler over an online social
// network that forgoes the long burn-in wait. It walks a short, fixed number
// of steps to a candidate node v, proactively estimates the probability
// p_t(v) that the walk lands there via backward random walks (Section 5.1,
// UNBIASED-ESTIMATE, with the initial crawling of Section 5.2), and then
// applies acceptance-rejection sampling to correct the candidate stream to
// the input sampler's target distribution (Section 4). Weighted backward
// sampling (Section 5.3) is not implemented: it saved no queries here.
//
// The package also contains the IDEAL-WALK analysis of Section 4.1: exact
// query-cost curves computed from a full-topology oracle, and the Theorem 1
// closed forms (optimal walk length via the Lambert W function, the
// traditional walk's cost bound, and the savings ratio).
package core
