package osn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
)

// fastPolicy keeps resilience-test wall-clock negligible.
func fastPolicy() ResilientPolicy {
	return ResilientPolicy{
		MaxRetries:      6,
		BaseBackoff:     10 * time.Microsecond,
		MaxBackoff:      100 * time.Microsecond,
		BreakerCooldown: 5 * time.Millisecond,
	}
}

// TestResilientAbsorbsTransientFaults is the PR's core contract at the
// client level: under a seeded transient-fault schedule fully absorbed by
// retries, every access answers ground truth and every meter matches the
// fault-free run exactly — retries are invisible above the resilience layer.
func TestResilientAbsorbsTransientFaults(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))

	// Reference run: plain mem backend.
	ref := NewClient(NewNetwork(g), CostUniqueNodes, rand.New(rand.NewSource(1)))

	// Faulty run: 20% transient + 5% rate-limit faults under the retry layer.
	fs, err := NewFaultSim(NewMemBackend(g), FaultConfig{
		Seed:          11,
		TransientRate: 0.2,
		RateLimitRate: 0.05,
		RetryAfter:    50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := NewResilientBackend(fs, fastPolicy())
	c := NewClient(NewNetworkOn(res), CostUniqueNodes, rand.New(rand.NewSource(1)))

	// A deterministic access mix: walks of single lookups plus batches.
	walk := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		v := walk.Intn(g.NumNodes())
		a, b := ref.Neighbors(v), c.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: %d vs %d neighbors", v, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d neighbor %d differs", v, j)
			}
		}
	}
	vs := make([]int32, 64)
	for i := range vs {
		vs[i] = int32(walk.Intn(g.NumNodes()))
	}
	outA := make([][]int32, len(vs))
	outB := make([][]int32, len(vs))
	ref.NeighborsBatch(vs, outA)
	c.NeighborsBatch(vs, outB)
	for i := range vs {
		if len(outA[i]) != len(outB[i]) {
			t.Fatalf("batch element %d: %d vs %d neighbors", i, len(outB[i]), len(outA[i]))
		}
	}

	if c.Queries() != ref.Queries() || c.Calls() != ref.Calls() {
		t.Fatalf("meters diverged: queries %d/%d calls %d/%d (retries must not double-charge)",
			c.Queries(), ref.Queries(), c.Calls(), ref.Calls())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("client observed a failure: %v", err)
	}
	if c.FailedFetches() != 0 {
		t.Fatalf("%d failed fetches, want 0 (all faults absorbed)", c.FailedFetches())
	}
	st := res.Stats()
	if st.Absorbed == 0 || st.Retries == 0 {
		t.Fatalf("no retries recorded (absorbed=%d retries=%d) — schedule drifted?", st.Absorbed, st.Retries)
	}
	if st.Failures != 0 {
		t.Fatalf("%d give-ups under an absorbable schedule", st.Failures)
	}
	if fs.Stats().Total() == 0 {
		t.Fatal("injector recorded no faults")
	}
}

// TestResilientGiveUpCancelsWithTypedError: under a full outage the retry
// policy exhausts, the access surfaces as a typed BackendUnavailableError,
// the failure-cancel hook fires with that cause, and nothing is cached or
// charged for the failed access.
func TestResilientGiveUpCancelsWithTypedError(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, rand.New(rand.NewSource(1)))
	fs, err := NewFaultSim(NewMemBackend(g), FaultConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs.StartOutage()
	pol := fastPolicy()
	pol.MaxRetries = 2
	res := NewResilientBackend(fs, pol)
	c := NewClient(NewNetworkOn(res), CostUniqueNodes, rand.New(rand.NewSource(1)))

	ctx, cancel := context.WithCancelCause(context.Background())
	c.BindContext(WithFailureCancel(ctx, cancel))

	if nbr := c.Neighbors(5); nbr != nil {
		t.Fatalf("failed access returned a list: %v", nbr)
	}
	var bu *BackendUnavailableError
	if err := c.Err(); !errors.As(err, &bu) {
		t.Fatalf("client error %v, want BackendUnavailableError", err)
	}
	if bu.Reason != "retries_exhausted" {
		t.Fatalf("reason %q, want retries_exhausted", bu.Reason)
	}
	if bu.Attempts != 3 {
		t.Fatalf("attempts %d, want 3 (1 + 2 retries)", bu.Attempts)
	}
	var fe *FaultError
	if !errors.As(bu, &fe) || fe.Kind != FaultOutage {
		t.Fatalf("underlying cause %v, want an outage FaultError", bu.Last)
	}
	if ctx.Err() == nil {
		t.Fatal("failure-cancel hook did not cancel the context")
	}
	if cause := context.Cause(ctx); !errors.As(cause, &bu) {
		t.Fatalf("context cause %v, want the typed error", cause)
	}
	if c.Queries() != 0 || c.Calls() != 0 {
		t.Fatalf("failed access charged: queries=%d calls=%d", c.Queries(), c.Calls())
	}

	// After the outage ends and the breaker recovers, the same node resolves
	// and is charged exactly once — the failure left no cache poison behind.
	fs.EndOutage()
	time.Sleep(2 * pol.BreakerCooldown)
	c2 := NewClient(NewNetworkOn(res), CostUniqueNodes, rand.New(rand.NewSource(1)))
	if nbr := c2.Neighbors(5); len(nbr) == 0 {
		t.Fatal("post-outage access still failing")
	}
	if c2.Queries() != 1 {
		t.Fatalf("post-outage access charged %d, want 1", c2.Queries())
	}
}

// TestResilientBreakerLifecycle: consecutive failures open the breaker,
// open-state calls fail fast without touching the backend, and after the
// cooldown a half-open probe success closes it again.
func TestResilientBreakerLifecycle(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, rand.New(rand.NewSource(1)))
	fs, err := NewFaultSim(NewMemBackend(g), FaultConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pol := fastPolicy()
	pol.MaxRetries = 1
	pol.BreakerThreshold = 2
	res := NewResilientBackend(fs, pol)
	ctx := context.Background()

	fs.StartOutage()
	if _, err := neighborsOne(res, ctx, 0); err == nil {
		t.Fatal("outage call succeeded")
	}
	if st := res.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker %v after %d consecutive failures, want open", st, pol.BreakerThreshold)
	}
	// A call against the open breaker: the open-state attempt is rejected at
	// the gate (backend untouched); after the cooldown the single half-open
	// probe goes through, fails against the ongoing outage, and reopens the
	// breaker — so of the call's 2 attempts at most 1 reaches the backend.
	attemptsWhenOpen := fs.Stats().Attempts
	_, gerr := neighborsOne(res, ctx, 1)
	var bu *BackendUnavailableError
	if !errors.As(gerr, &bu) {
		t.Fatalf("open-breaker call: %v, want a typed give-up", gerr)
	}
	if through := fs.Stats().Attempts - attemptsWhenOpen; through > 1 {
		t.Fatalf("open breaker let %d attempts through, want <= 1 (the probe)", through)
	}
	if st := res.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker %v after a failed probe, want reopened", st)
	}
	if res.Stats().BreakerOpens < 2 {
		t.Fatalf("breaker-opens = %d, want >= 2 (initial open + reopen after failed probe)", res.Stats().BreakerOpens)
	}

	fs.EndOutage()
	time.Sleep(pol.BreakerCooldown + time.Millisecond)
	if nbr, err := neighborsOne(res, ctx, 2); err != nil || len(nbr) == 0 {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := res.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %v after a successful probe, want closed", st)
	}
}

// TestResilientRetryBudgetExhaustion: when the shared token pool runs dry,
// the layer gives up with the retry_budget_exhausted reason instead of
// hammering the backend.
func TestResilientRetryBudgetExhaustion(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, rand.New(rand.NewSource(1)))
	fs, err := NewFaultSim(NewMemBackend(g), FaultConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs.StartOutage()
	pol := fastPolicy()
	pol.RetryBudget = 0.5 // half a token: the first retry is already denied
	res := NewResilientBackend(fs, pol)
	_, gerr := neighborsOne(res, context.Background(), 0)
	var bu *BackendUnavailableError
	if !errors.As(gerr, &bu) || bu.Reason != "retry_budget_exhausted" {
		t.Fatalf("got %v, want retry_budget_exhausted give-up", gerr)
	}
}

// TestResilientBudgetSustainsAbsorbableRate: the budget must never drain
// under a sustained absorbable fault rate, even over wide batches — spend
// is one token per retry round trip (never per element, which could make
// a single wide batch unaffordable) and refunds are per resolved element.
// (Regression: spend used to be per pending element and refunds per call,
// so a long crawl at 5% faults over large prefetch batches exhausted the
// pool and every later access gave up with retry_budget_exhausted.)
func TestResilientBudgetSustainsAbsorbableRate(t *testing.T) {
	inner := faultGraphBackend(t)
	fs, err := NewFaultSim(inner, FaultConfig{Seed: 11, TransientRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pol := fastPolicy()
	// Tiny pool: per-element spend couldn't even afford one round's ~10
	// pending elements, and per-call refunds would drain it regardless;
	// per-round spend with per-element refunds keeps it full.
	pol.RetryBudget = 8
	res := NewResilientBackend(fs, pol)
	ctx := context.Background()

	vs := make([]int32, 200)
	out := make([][]int32, len(vs))
	failed := make([]bool, len(vs))
	for round := 0; round < 50; round++ {
		for i := range vs {
			vs[i] = int32((round*7 + i) % inner.NumNodes())
		}
		if berr := res.NeighborsBatchCtx(ctx, vs, out, failed); berr != nil {
			t.Fatalf("round %d: %v", round, berr)
		}
	}
	st := res.Stats()
	if st.Failures != 0 {
		t.Fatalf("%d give-ups at an absorbable rate", st.Failures)
	}
	if st.BudgetRemaining < pol.RetryBudget/2 {
		t.Fatalf("budget drained to %.2f of %.0f under a sustained absorbable rate",
			st.BudgetRemaining, pol.RetryBudget)
	}
}

// flakyOnce is a FallibleBackend stub whose node-v accesses fail exactly
// once with a rate-limit hint, then succeed.
type flakyOnce struct {
	MemBackend
	hint   time.Duration
	failed map[int]bool
}

func (f *flakyOnce) neighbors(v int) ([]int32, error) {
	if !f.failed[v] {
		f.failed[v] = true
		return nil, &FaultError{Kind: FaultRateLimit, Node: int32(v), RetryAfter: f.hint}
	}
	return f.MemBackend.Neighbors(v), nil
}

func (f *flakyOnce) NeighborsBatchCtx(_ context.Context, vs []int32, out [][]int32, failed []bool) error {
	var first error
	for i, v := range vs {
		nbr, err := f.neighbors(int(v))
		out[i], failed[i] = nbr, err != nil
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f *flakyOnce) AttrCtx(_ context.Context, name string, v int) (float64, bool, error) {
	val, ok := f.MemBackend.Attr(name, v)
	return val, ok, nil
}

// TestResilientHonorsRetryAfter: a rate-limit fault's retry-after hint
// stretches the backoff — the retry does not fire before the hint elapses.
func TestResilientHonorsRetryAfter(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, rand.New(rand.NewSource(1)))
	const hint = 25 * time.Millisecond
	fb := &flakyOnce{MemBackend: NewMemBackend(g), hint: hint, failed: map[int]bool{}}
	res := NewResilientBackend(fb, fastPolicy())

	began := time.Now()
	nbr, err := neighborsOne(res, context.Background(), 3)
	if err != nil || len(nbr) == 0 {
		t.Fatalf("retry did not recover: %v", err)
	}
	if el := time.Since(began); el < hint {
		t.Fatalf("retry fired after %v, before the %v retry-after hint", el, hint)
	}
	if res.Stats().Absorbed != 1 {
		t.Fatalf("absorbed = %d, want 1", res.Stats().Absorbed)
	}
}

// TestResilientBatchPartialRetry: in a batch where only some elements fault,
// retries re-issue just the failed subset and the final batch is complete
// and correct.
func TestResilientBatchPartialRetry(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, rand.New(rand.NewSource(1)))
	mem := NewMemBackend(g)
	fb := &flakyOnce{MemBackend: mem, failed: map[int]bool{}}
	// Pre-mark even nodes as already failed: they succeed on first issue,
	// odd nodes fault once and resolve on the retry round.
	for v := 0; v < g.NumNodes(); v += 2 {
		fb.failed[v] = true
	}
	res := NewResilientBackend(fb, fastPolicy())

	vs := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	out := make([][]int32, len(vs))
	failed := make([]bool, len(vs))
	if err := res.NeighborsBatchCtx(context.Background(), vs, out, failed); err != nil {
		t.Fatalf("batch did not recover: %v", err)
	}
	for i, v := range vs {
		if failed[i] {
			t.Fatalf("element %d still failed", i)
		}
		want := mem.Neighbors(int(v))
		if len(out[i]) != len(want) {
			t.Fatalf("element %d: %d neighbors, want %d", i, len(out[i]), len(want))
		}
	}
	if res.Stats().Absorbed != 1 {
		t.Fatalf("absorbed = %d, want 1 batch-level absorption", res.Stats().Absorbed)
	}
}
