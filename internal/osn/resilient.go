package osn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// ResilientPolicy parameterizes a ResilientBackend. Zero fields select the
// documented defaults.
type ResilientPolicy struct {
	// MaxRetries is how many times one access is retried after its first
	// failure (default 6).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; it doubles per retry up to
	// MaxBackoff, plus a deterministic jitter in [0, d/2] (defaults 500µs
	// and 100ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryBudget is the per-backend pool of retry tokens: every retry
	// round trip (across all callers; a batched subset retry is one round
	// trip, whatever its width) spends one, and every successfully
	// resolved element refunds budgetRefund, capped at RetryBudget.
	// Against a dead backend nothing resolves, so the pool drains and the
	// fleet stops retrying long before each caller's MaxRetries would —
	// the classic retry-budget guard against retry storms (default 512) —
	// while under any absorbable fault rate resolved elements keep the
	// pool topped up indefinitely.
	RetryBudget float64
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 8).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through (default 250ms).
	BreakerCooldown time.Duration
}

// budgetRefund is the fraction of a retry token each successfully resolved
// element returns to the budget.
const budgetRefund = 0.1

func (p ResilientPolicy) withDefaults() ResilientPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 6
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = 512
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 8
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 250 * time.Millisecond
	}
	return p
}

// BreakerState is the circuit breaker's state.
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the metric-label spelling of the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ResilientStats is an atomic snapshot of a ResilientBackend's meters.
type ResilientStats struct {
	// Retries is the total number of retry attempts issued.
	Retries int64
	// Absorbed is the number of calls that ultimately succeeded after at
	// least one retry — faults the layer hid from everything above it.
	Absorbed int64
	// Failures is the number of calls given up on (typed errors surfaced).
	Failures int64
	// BreakerOpens is how many times the circuit breaker tripped open.
	BreakerOpens int64
	// Breaker is the breaker's current state.
	Breaker BreakerState
	// BudgetRemaining is the retry-token pool's current level.
	BudgetRemaining float64
}

// breakerOpenError is the retryable gate rejection while the breaker is
// open (or a half-open probe is already in flight): the call did not reach
// the backend; wait suggests when the next probe slot opens.
type breakerOpenError struct{ wait time.Duration }

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("osn: circuit breaker open (retry in %v)", e.wait)
}

// errRetryBudget marks a retry denied because the shared token pool ran dry.
var errRetryBudget = errors.New("osn: retry budget exhausted")

// ResilientBackend decorates a fallible backend with the resilience loop a
// production crawler runs: capped exponential backoff with deterministic
// jitter, a shared per-backend retry budget, client-side request pacing plus
// retry-after honoring, and a circuit breaker (closed / open / half-open
// with single-probe recovery). All waits are context-aware, so a per-job
// deadline cuts them short.
//
// The layer sits below osn.Client: retries are invisible above it — they
// consume no sampling RNG and cause no double charging, because the Client
// only caches and charges an access after it has succeeded, exactly once.
// When the policy is exhausted the call fails with a typed
// BackendUnavailableError; if the access context carries a
// WithFailureCancel hook, the error also cancels the owning job context, so
// the sampler's existing cancellation path fails the job promptly.
//
// Like the backends it wraps, a ResilientBackend is safe for concurrent
// callers; the breaker, budget, and throttle are deliberately shared — they
// model the one platform connection the whole process has.
type ResilientBackend struct {
	be  Backend
	fb  FallibleBackend // inner's fallible surface; nil for infallible backends
	pol ResilientPolicy

	// jseq drives the deterministic backoff jitter (a splitmix64 finalizer
	// over an atomic counter — never the sampling RNG).
	jseq atomic.Uint64
	// tokens is the retry budget in milli-tokens.
	tokens    atomic.Int64
	maxTokens int64
	// throttleUntil (unixnano) is the fleet-wide pause published by
	// rate-limit retry-after hints.
	throttleUntil atomic.Int64

	retries      atomic.Int64
	absorbed     atomic.Int64
	failures     atomic.Int64
	breakerOpens atomic.Int64

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probing     bool
}

// NewResilientBackend wraps inner with the given policy. Wrapping an
// infallible backend is a transparent pass-through.
func NewResilientBackend(inner Backend, pol ResilientPolicy) *ResilientBackend {
	pol = pol.withDefaults()
	fb, _ := inner.(FallibleBackend)
	r := &ResilientBackend{be: inner, fb: fb, pol: pol,
		maxTokens: int64(pol.RetryBudget * 1000)}
	r.tokens.Store(r.maxTokens)
	return r
}

// Inner returns the wrapped backend (evaluation-layer unwrapping).
func (r *ResilientBackend) Inner() Backend { return r.be }

// Stats returns an atomic snapshot of the resilience meters.
func (r *ResilientBackend) Stats() ResilientStats {
	r.mu.Lock()
	state := r.state
	r.mu.Unlock()
	return ResilientStats{
		Retries:         r.retries.Load(),
		Absorbed:        r.absorbed.Load(),
		Failures:        r.failures.Load(),
		BreakerOpens:    r.breakerOpens.Load(),
		Breaker:         state,
		BudgetRemaining: float64(r.tokens.Load()) / 1000,
	}
}

// BreakerState returns the breaker's current state (transitions out of open
// happen lazily, on the next gated call after the cooldown).
func (r *ResilientBackend) BreakerState() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// jitter returns d plus a deterministic jitter in [0, d/2], drawn from the
// layer's own atomic splitmix64 stream.
func (r *ResilientBackend) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	z := r.jseq.Add(1) * 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return d + time.Duration(z%uint64(d/2+1))
}

// sleepCtx sleeps d or until ctx is done, returning the context's cause in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// gate runs the pre-attempt checks: context, fleet throttle and circuit
// breaker. probe reports that this attempt is the breaker's half-open probe.
// A *breakerOpenError return is retryable (the backend was not contacted); a
// context cause is not.
func (r *ResilientBackend) gate(ctx context.Context) (probe bool, err error) {
	if ctx.Err() != nil {
		return false, context.Cause(ctx)
	}
	if tu := r.throttleUntil.Load(); tu > 0 {
		if d := time.Until(time.Unix(0, tu)); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return false, err
			}
		}
	}
	r.mu.Lock()
	switch r.state {
	case BreakerClosed:
	case BreakerOpen:
		if wait := time.Until(r.openedAt.Add(r.pol.BreakerCooldown)); wait > 0 {
			r.mu.Unlock()
			return false, &breakerOpenError{wait: wait}
		}
		r.state = BreakerHalfOpen
		r.probing = true
		probe = true
	default: // half-open
		if r.probing {
			r.mu.Unlock()
			return false, &breakerOpenError{wait: r.pol.BreakerCooldown}
		}
		r.probing = true
		probe = true
	}
	r.mu.Unlock()
	return probe, nil
}

// noteResult feeds one backend attempt's outcome to the breaker and the
// retry budget.
func (r *ResilientBackend) noteResult(success, probe bool) {
	r.noteBreaker(success, probe)
	if success {
		r.refundN(1)
	}
}

// noteBreaker feeds one backend attempt's outcome to the breaker alone —
// batch rounds refund per resolved element instead of per call.
func (r *ResilientBackend) noteBreaker(success, probe bool) {
	r.mu.Lock()
	if probe {
		r.probing = false
	}
	if success {
		r.consecFails = 0
		r.state = BreakerClosed
	} else {
		r.consecFails++
		switch r.state {
		case BreakerHalfOpen:
			if probe {
				r.state = BreakerOpen
				r.openedAt = time.Now()
				r.breakerOpens.Add(1)
			}
		case BreakerClosed:
			if r.consecFails >= r.pol.BreakerThreshold {
				r.state = BreakerOpen
				r.openedAt = time.Now()
				r.breakerOpens.Add(1)
			}
		}
	}
	r.mu.Unlock()
}

// takeTokens spends n retry tokens, reporting whether the budget allowed it.
func (r *ResilientBackend) takeTokens(n int) bool {
	need := int64(n) * 1000
	for {
		cur := r.tokens.Load()
		if cur < need {
			return false
		}
		if r.tokens.CompareAndSwap(cur, cur-need) {
			return true
		}
	}
}

// refundN returns n resolved elements' worth of budget, capped at the
// pool size. Refunds are per element while spend is per retry round trip:
// useful work earns credit in proportion to what actually resolved, so
// absorbable fault rates sustain the pool, while a dead backend (nothing
// resolves, rounds keep spending) still drains it.
func (r *ResilientBackend) refundN(n int) {
	add := int64(n) * int64(budgetRefund*1000)
	for {
		cur := r.tokens.Load()
		if cur >= r.maxTokens {
			return
		}
		next := cur + add
		if next > r.maxTokens {
			next = r.maxTokens
		}
		if r.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// waitRetry sleeps before retry number attempt+1: capped exponential
// backoff with deterministic jitter, stretched to any retry-after hint or
// breaker cooldown carried by cause (rate-limit hints are also published
// fleet-wide). Context-aware.
func (r *ResilientBackend) waitRetry(ctx context.Context, attempt int, cause error) error {
	d := r.pol.BaseBackoff
	for i := 0; i < attempt && d < r.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	d = r.jitter(d)
	var fe *FaultError
	if errors.As(cause, &fe) && fe.RetryAfter > 0 {
		if fe.RetryAfter > d {
			d = fe.RetryAfter
		}
		until := time.Now().Add(fe.RetryAfter).UnixNano()
		for {
			cur := r.throttleUntil.Load()
			if cur >= until || r.throttleUntil.CompareAndSwap(cur, until) {
				break
			}
		}
	}
	var bo *breakerOpenError
	if errors.As(cause, &bo) && bo.wait > d {
		d = bo.wait
	}
	return sleepCtx(ctx, d)
}

// fail finalizes a given-up call: it classifies the reason, fires the
// context's failure-cancel hook (so the owning job fails with the typed
// error), and returns the error. A context that was already done is not a
// backend failure — its own cause propagates uncounted.
func (r *ResilientBackend) fail(ctx context.Context, attempts int, cause, last error) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	reason := "retries_exhausted"
	underlying := cause
	var bo *breakerOpenError
	switch {
	case errors.Is(cause, errRetryBudget):
		reason = "retry_budget_exhausted"
		underlying = last
	case errors.As(cause, &bo):
		reason = "breaker_open"
		underlying = last
	}
	be := &BackendUnavailableError{Reason: reason, Attempts: attempts, Last: underlying}
	r.failures.Add(1)
	if cancel := failureCancel(ctx); cancel != nil {
		cancel(be)
	}
	return be
}

// do runs one access through the retry loop. call performs the access and
// reports its error; it runs at most 1+MaxRetries times.
func (r *ResilientBackend) do(ctx context.Context, call func() error) error {
	var last error
	for attempt := 0; ; attempt++ {
		probe, gerr := r.gate(ctx)
		var err error
		if gerr != nil {
			var bo *breakerOpenError
			if !errors.As(gerr, &bo) {
				return r.fail(ctx, attempt, gerr, last)
			}
			err = gerr // retryable: the breaker refused, backend untouched
		} else {
			err = call()
			r.noteResult(err == nil, probe)
			if err == nil {
				if attempt > 0 {
					r.absorbed.Add(1)
				}
				return nil
			}
			last = err
		}
		if attempt >= r.pol.MaxRetries {
			return r.fail(ctx, attempt+1, err, last)
		}
		if !r.takeTokens(1) {
			return r.fail(ctx, attempt+1, errRetryBudget, last)
		}
		r.retries.Add(1)
		if werr := r.waitRetry(ctx, attempt, err); werr != nil {
			return r.fail(ctx, attempt+1, werr, last)
		}
	}
}

// AttrCtx implements FallibleBackend.
func (r *ResilientBackend) AttrCtx(ctx context.Context, name string, v int) (float64, bool, error) {
	if r.fb == nil {
		val, ok := r.be.Attr(name, v)
		return val, ok, nil
	}
	var val float64
	var ok bool
	err := r.do(ctx, func() error {
		var e error
		val, ok, e = r.fb.AttrCtx(ctx, name, v)
		return e
	})
	if err != nil {
		return 0, false, err
	}
	return val, ok, nil
}

// NeighborsBatchCtx implements FallibleBackend: the whole batch is issued,
// then only the failed subset is retried per round — so a transient fault
// on one element never re-fetches (or re-waits for) the others. Rounds
// share the single-call loop's backoff, budget, and breaker bookkeeping;
// elements still failed when the policy is exhausted stay marked in failed
// and the typed give-up error is returned.
func (r *ResilientBackend) NeighborsBatchCtx(ctx context.Context, vs []int32, out [][]int32, failed []bool) error {
	if r.fb == nil {
		r.be.NeighborsBatch(vs, out)
		for i := range failed {
			failed[i] = false
		}
		return nil
	}
	var last error
	first := true
	prevPending := len(vs)
	for attempt := 0; ; attempt++ {
		probe, gerr := r.gate(ctx)
		var err error
		issued := false
		if gerr != nil {
			var bo *breakerOpenError
			if !errors.As(gerr, &bo) {
				if first {
					markAllFailed(out, failed)
				}
				return r.fail(ctx, attempt, gerr, last)
			}
			err = gerr
			if first {
				markAllFailed(out, failed)
			}
		} else {
			if first {
				err = r.fb.NeighborsBatchCtx(ctx, vs, out, failed)
			} else {
				err = r.retryFailed(ctx, vs, out, failed)
			}
			first = false
			issued = true
			r.noteBreaker(err == nil, probe)
			if err == nil {
				r.refundN(prevPending)
				if attempt > 0 {
					r.absorbed.Add(1)
				}
				return nil
			}
			last = err
		}
		pending := 0
		for _, f := range failed {
			if f {
				pending++
			}
		}
		// Refund per element resolved this round, even when the round as a
		// whole still has failures — resolved elements are useful work.
		if issued && prevPending > pending {
			r.refundN(prevPending - pending)
		}
		prevPending = pending
		if pending == 0 {
			return nil
		}
		if attempt >= r.pol.MaxRetries {
			return r.fail(ctx, attempt+1, err, last)
		}
		// One token per retry round trip, not per element: the pressure a
		// retry puts on the backend is one request regardless of subset
		// width, and a budget charged per element could never afford a
		// retry for a batch wider than the whole pool.
		if !r.takeTokens(1) {
			return r.fail(ctx, attempt+1, errRetryBudget, last)
		}
		r.retries.Add(int64(pending))
		if werr := r.waitRetry(ctx, attempt, err); werr != nil {
			return r.fail(ctx, attempt+1, werr, last)
		}
	}
}

// retryFailed re-issues the failed subset of a batch and scatters any
// newly resolved elements back in place.
func (r *ResilientBackend) retryFailed(ctx context.Context, vs []int32, out [][]int32, failed []bool) error {
	idx := make([]int, 0, len(vs))
	for i, f := range failed {
		if f {
			idx = append(idx, i)
		}
	}
	subVs := make([]int32, len(idx))
	for j, i := range idx {
		subVs[j] = vs[i]
	}
	subOut := make([][]int32, len(idx))
	subFailed := make([]bool, len(idx))
	err := r.fb.NeighborsBatchCtx(ctx, subVs, subOut, subFailed)
	for j, i := range idx {
		if !subFailed[j] {
			out[i] = subOut[j]
			failed[i] = false
		}
	}
	return err
}

func markAllFailed(out [][]int32, failed []bool) {
	for i := range failed {
		failed[i] = true
		out[i] = nil
	}
}

// NumNodes implements Backend (metadata is locally known; never gated).
func (r *ResilientBackend) NumNodes() int { return r.be.NumNodes() }

// NumEdges implements Backend.
func (r *ResilientBackend) NumEdges() int { return r.be.NumEdges() }

// Degree implements Backend as the length of v's neighbor list; an
// unabsorbed failure degrades to 0.
func (r *ResilientBackend) Degree(v int) int { return len(r.Neighbors(v)) }

// Neighbors implements Backend as a batch of one; an unabsorbed failure
// degrades to an empty list (kernels treat the node as stranded). Callers
// that need the typed error use the FallibleBackend surface — the metered
// Client does so automatically when bound to a context.
func (r *ResilientBackend) Neighbors(v int) []int32 {
	out := make([][]int32, 1)
	r.NeighborsBatch([]int32{int32(v)}, out)
	return out[0]
}

// NeighborsBatch implements Backend; failed elements degrade to nil.
func (r *ResilientBackend) NeighborsBatch(vs []int32, out [][]int32) {
	failed := make([]bool, len(vs))
	r.NeighborsBatchCtx(context.Background(), vs, out, failed)
}

// Attr implements Backend; an unabsorbed failure degrades to absent.
func (r *ResilientBackend) Attr(name string, v int) (float64, bool) {
	val, ok, err := r.AttrCtx(context.Background(), name, v)
	if err != nil {
		return 0, false
	}
	return val, ok
}

// AttrNames implements Backend.
func (r *ResilientBackend) AttrNames() []string { return r.be.AttrNames() }

// GraphView implements GraphViewer when the wrapped backend does.
func (r *ResilientBackend) GraphView() *graph.Graph {
	if gv, ok := r.be.(GraphViewer); ok {
		return gv.GraphView()
	}
	return nil
}
