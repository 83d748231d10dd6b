package osn

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fastrand"
	"repro/internal/graph"
)

// This file is the failure half of the access model: a deterministic fault
// injector (FaultSim) that makes a backend fail the way a real OSN platform
// does — transient 5xx, timeouts, rate-limit rejections with a retry-after
// hint, full outages — plus the fallible access interface (FallibleBackend)
// the resilience middleware and the metered Client speak underneath the
// infallible Backend surface. Kernels and walk.View never see any of this:
// faults are either absorbed below the Client by a ResilientBackend, or
// surface as a typed error that cancels the job context.

// FaultKind classifies an injected (or observed) backend fault.
type FaultKind uint8

// The fault taxonomy, modeled on real platform APIs.
const (
	// FaultTransient is a retryable server-side error (a 5xx): the request
	// failed but an immediate retry may succeed.
	FaultTransient FaultKind = iota
	// FaultTimeout is a request that timed out in flight; the caller paid
	// the wait and got nothing.
	FaultTimeout
	// FaultRateLimit is a quota rejection (a 429) carrying a retry-after
	// hint the caller is expected to honor.
	FaultRateLimit
	// FaultOutage is a request rejected during a full-outage window; retries
	// within the window cannot succeed.
	FaultOutage
	numFaultKinds
)

// String returns the metric-label spelling of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultTimeout:
		return "timeout"
	case FaultRateLimit:
		return "rate_limit"
	case FaultOutage:
		return "outage"
	}
	return "unknown"
}

// FaultError is one injected backend failure.
type FaultError struct {
	Kind FaultKind
	Node int32 // the node the failed request was for (-1 when not node-scoped)
	// RetryAfter is the platform's back-off hint (rate-limit faults).
	RetryAfter time.Duration
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("osn: %s fault on node %d (retry after %v)", e.Kind, e.Node, e.RetryAfter)
	}
	return fmt.Sprintf("osn: %s fault on node %d", e.Kind, e.Node)
}

// BackendUnavailableError is the typed give-up error of the resilience
// layer: the retry policy was exhausted (or the circuit breaker refused the
// call) and the access could not be completed. It cancels the owning job
// context when one is attached (WithFailureCancel), which is how a fault
// below the infallible Client surface still fails the job above it.
type BackendUnavailableError struct {
	// Reason is the machine-readable cause: "retries_exhausted",
	// "retry_budget_exhausted", or "breaker_open".
	Reason string
	// Attempts is how many times the call was tried before giving up.
	Attempts int
	// Last is the final underlying fault.
	Last error
}

// Error implements error.
func (e *BackendUnavailableError) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("osn: backend unavailable (%s after %d attempts): %v", e.Reason, e.Attempts, e.Last)
	}
	return fmt.Sprintf("osn: backend unavailable (%s after %d attempts)", e.Reason, e.Attempts)
}

// Unwrap exposes the underlying fault to errors.Is/As.
func (e *BackendUnavailableError) Unwrap() error { return e.Last }

// FallibleBackend is the error-aware access surface underneath the
// infallible Backend interface. Backends that can actually fail (FaultSim,
// ResilientBackend, a future live HTTP backend) implement it alongside
// Backend; the Client type-asserts for it at construction and, when present,
// routes every cold fetch (Client.admit) through NeighborsBatchCtx, so a
// failure is never cached, never charged, and is reported instead of
// silently degraded. A single-node fetch is a batch of one. The context carries
// the per-job deadline (waits in the resilience layer select on it) and
// optionally a failure-cancel hook (WithFailureCancel).
//
// NeighborsBatchCtx fills out[i] and failed[i] for every element of vs
// (len(out) == len(failed) == len(vs)): failed[i] reports that vs[i] could
// not be resolved, and the returned error is the representative failure
// (nil when every element succeeded). Successful elements of a partially
// failed batch are still valid.
type FallibleBackend interface {
	NeighborsBatchCtx(ctx context.Context, vs []int32, out [][]int32, failed []bool) error
	AttrCtx(ctx context.Context, name string, v int) (float64, bool, error)
}

// failureCancelKey carries a context.CancelCauseFunc through a job context.
type failureCancelKey struct{}

// WithFailureCancel attaches a cancel-cause hook to ctx. When a
// ResilientBackend below the Client gives up on an access issued under this
// context, it cancels the hook with the typed BackendUnavailableError —
// which the core samplers' context checks then carry out of the run, so a
// failure below the infallible kernel surface still fails the job promptly
// and with its cause intact.
func WithFailureCancel(ctx context.Context, cancel context.CancelCauseFunc) context.Context {
	return context.WithValue(ctx, failureCancelKey{}, cancel)
}

// failureCancel extracts the hook installed by WithFailureCancel, or nil.
func failureCancel(ctx context.Context) context.CancelCauseFunc {
	c, _ := ctx.Value(failureCancelKey{}).(context.CancelCauseFunc)
	return c
}

// SeqWindow is a half-open interval [From, Until) over the fault sequence
// counter: attempts whose sequence number falls inside it are rejected as
// outage faults. Sequence-space windows make outage chaos tests exactly
// reproducible, independent of wall-clock.
type SeqWindow struct {
	From  uint64 `json:"from"`
	Until uint64 `json:"until"`
}

// FaultConfig parameterizes a FaultSim. Rates are per-round-trip
// probabilities in [0, 1]; their sum must be <= 1. All zero rates and no
// windows means the sim is a transparent pass-through.
type FaultConfig struct {
	// Seed drives the fault schedule. The schedule is a pure function of
	// (Seed, attempt sequence number) through internal/fastrand, so a fixed
	// seed and call sequence reproduce the identical fault sequence.
	Seed int64
	// TransientRate, TimeoutRate, RateLimitRate are the per-attempt
	// probabilities of each retryable fault kind.
	TransientRate float64
	TimeoutRate   float64
	RateLimitRate float64
	// RetryAfter is the hint attached to rate-limit faults (default 1ms).
	RetryAfter time.Duration
	// Outages are deterministic full-outage windows over the attempt
	// sequence counter.
	Outages []SeqWindow
	// OutageStart/OutageDur, when OutageDur > 0, define one wall-clock
	// outage window [OutageStart, OutageStart+OutageDur) measured from
	// FaultSim construction — the CLI-friendly form.
	OutageStart time.Duration
	OutageDur   time.Duration
}

func (c FaultConfig) validate() error {
	for _, r := range []float64{c.TransientRate, c.TimeoutRate, c.RateLimitRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("osn: fault rate %v out of [0,1]", r)
		}
	}
	if sum := c.TransientRate + c.TimeoutRate + c.RateLimitRate; sum > 1 {
		return fmt.Errorf("osn: fault rates sum to %v > 1", sum)
	}
	return nil
}

// FaultStats is an atomic snapshot of a FaultSim's meters.
type FaultStats struct {
	// Attempts is the number of round trips the schedule was consulted for.
	Attempts int64
	// Injected counts injected faults by kind, indexed by FaultKind.
	Injected [numFaultKinds]int64
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	t := int64(0)
	for _, v := range s.Injected {
		t += v
	}
	return t
}

// FaultSim wraps a Backend with a deterministic, seeded fault schedule: each
// round trip consults a pure function of (seed, attempt sequence number) and
// either passes through to the inner backend or fails with a FaultError.
// It implements both the infallible Backend interface (a fault degrades to
// an empty answer — safe for every kernel, but only reached when no
// resilience layer sits above) and FallibleBackend (faults surface as typed
// errors for the resilience middleware to absorb or report).
//
// Determinism: the schedule depends only on the seed and the attempt
// counter, so a single-threaded call sequence — including the batched path,
// whose per-element decisions are made sequentially on the caller goroutine
// before the surviving subset is delegated to the inner backend's fanout —
// reproduces bit-identically under a fixed seed. Concurrent callers
// interleave their counter draws nondeterministically (like any shared
// platform), but data is never perturbed: a request either fails cleanly or
// returns ground truth.
type FaultSim struct {
	inner Backend
	cfg   FaultConfig
	t0    time.Time     // construction time, anchor of the timed outage window
	seq   atomic.Uint64 // attempt sequence counter, the schedule's x-axis
	// manual is the test-controlled outage toggle (StartOutage/EndOutage).
	manual   atomic.Bool
	injected [numFaultKinds]atomic.Int64
}

// NewFaultSim wraps inner with the given fault schedule. Invalid rates
// (outside [0,1] or summing past 1) return an error.
func NewFaultSim(inner Backend, cfg FaultConfig) (*FaultSim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Millisecond
	}
	return &FaultSim{inner: inner, cfg: cfg, t0: time.Now()}, nil
}

// Inner returns the wrapped backend (evaluation-layer unwrapping).
func (f *FaultSim) Inner() Backend { return f.inner }

// Config returns the fault schedule parameters.
func (f *FaultSim) Config() FaultConfig { return f.cfg }

// Stats returns an atomic snapshot of the injection meters.
func (f *FaultSim) Stats() FaultStats {
	st := FaultStats{Attempts: int64(f.seq.Load())}
	for i := range f.injected {
		st.Injected[i] = f.injected[i].Load()
	}
	return st
}

// StartOutage begins a manual full outage: every attempt fails with
// FaultOutage until EndOutage. Test and operational control surface; the
// deterministic schedule is untouched (the counter keeps advancing).
func (f *FaultSim) StartOutage() { f.manual.Store(true) }

// EndOutage ends a manual outage.
func (f *FaultSim) EndOutage() { f.manual.Store(false) }

func (f *FaultSim) outageAt(s uint64) bool {
	if f.manual.Load() {
		return true
	}
	for _, w := range f.cfg.Outages {
		if s >= w.From && s < w.Until {
			return true
		}
	}
	if f.cfg.OutageDur > 0 {
		el := time.Since(f.t0)
		if el >= f.cfg.OutageStart && el < f.cfg.OutageStart+f.cfg.OutageDur {
			return true
		}
	}
	return false
}

// decide consumes one position of the fault schedule and returns the fault
// injected there, or nil for a clean pass-through.
func (f *FaultSim) decide(v int32) *FaultError {
	s := f.seq.Add(1) - 1
	if f.outageAt(s) {
		f.injected[FaultOutage].Add(1)
		return &FaultError{Kind: FaultOutage, Node: v}
	}
	tr, to, rl := f.cfg.TransientRate, f.cfg.TimeoutRate, f.cfg.RateLimitRate
	if tr+to+rl == 0 {
		return nil
	}
	// One uniform draw per attempt, a pure function of (seed, position):
	// bit-reproducible under a fixed seed regardless of which node or batch
	// the attempt belongs to.
	u := float64(uint64(fastrand.Mix(f.cfg.Seed, int64(s), 0x7fa))>>11) * (1.0 / (1 << 53))
	switch {
	case u < tr:
		f.injected[FaultTransient].Add(1)
		return &FaultError{Kind: FaultTransient, Node: v}
	case u < tr+to:
		f.injected[FaultTimeout].Add(1)
		return &FaultError{Kind: FaultTimeout, Node: v}
	case u < tr+to+rl:
		f.injected[FaultRateLimit].Add(1)
		return &FaultError{Kind: FaultRateLimit, Node: v, RetryAfter: f.cfg.RetryAfter}
	}
	return nil
}

// AttrCtx implements FallibleBackend.
func (f *FaultSim) AttrCtx(_ context.Context, name string, v int) (float64, bool, error) {
	if fe := f.decide(int32(v)); fe != nil {
		return 0, false, fe
	}
	val, ok := f.inner.Attr(name, v)
	return val, ok, nil
}

// NeighborsBatchCtx implements FallibleBackend: per-element fault decisions
// are made sequentially on the caller goroutine (keeping the schedule
// reproducible even when the inner backend answers over concurrent fanout
// connections), then the surviving subset is delegated to the inner
// backend's batched path in one call. The fault-free case passes vs/out
// through untouched and allocates nothing.
func (f *FaultSim) NeighborsBatchCtx(_ context.Context, vs []int32, out [][]int32, failed []bool) error {
	var firstErr error
	nfail := 0
	for i, v := range vs {
		if fe := f.decide(v); fe != nil {
			failed[i] = true
			out[i] = nil
			nfail++
			if firstErr == nil {
				firstErr = fe
			}
		} else {
			failed[i] = false
		}
	}
	if nfail == 0 {
		f.inner.NeighborsBatch(vs, out)
		return nil
	}
	if nfail < len(vs) {
		subVs := make([]int32, 0, len(vs)-nfail)
		for i, v := range vs {
			if !failed[i] {
				subVs = append(subVs, v)
			}
		}
		subOut := make([][]int32, len(subVs))
		f.inner.NeighborsBatch(subVs, subOut)
		k := 0
		for i := range vs {
			if !failed[i] {
				out[i] = subOut[k]
				k++
			}
		}
	}
	return firstErr
}

// NumNodes implements Backend (metadata is locally known; never faulted).
func (f *FaultSim) NumNodes() int { return f.inner.NumNodes() }

// NumEdges implements Backend.
func (f *FaultSim) NumEdges() int { return f.inner.NumEdges() }

// Degree implements Backend; a fault degrades to 0.
func (f *FaultSim) Degree(v int) int {
	if f.decide(int32(v)) != nil {
		return 0
	}
	return f.inner.Degree(v)
}

// Neighbors implements Backend; a fault degrades to an empty list (safe for
// every kernel: designs treat it as a stranded node).
func (f *FaultSim) Neighbors(v int) []int32 {
	if f.decide(int32(v)) != nil {
		return nil
	}
	return f.inner.Neighbors(v)
}

// NeighborsBatch implements Backend; faulted elements degrade to nil.
func (f *FaultSim) NeighborsBatch(vs []int32, out [][]int32) {
	failed := make([]bool, len(vs))
	f.NeighborsBatchCtx(context.Background(), vs, out, failed)
}

// Attr implements Backend; a fault degrades to absent.
func (f *FaultSim) Attr(name string, v int) (float64, bool) {
	val, ok, err := f.AttrCtx(context.Background(), name, v)
	if err != nil {
		return 0, false
	}
	return val, ok
}

// AttrNames implements Backend.
func (f *FaultSim) AttrNames() []string { return f.inner.AttrNames() }

// GraphView implements GraphViewer when the wrapped backend does.
func (f *FaultSim) GraphView() *graph.Graph {
	if gv, ok := f.inner.(GraphViewer); ok {
		return gv.GraphView()
	}
	return nil
}
