package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/walk"
)

// A run under a cancellable-but-never-cancelled context must be
// bit-identical to the context-free call: the cancellation checks consume
// no RNG.
func TestSampleNParallelCtxMatchesNoCtx(t *testing.T) {
	const n, workers = 20, 4
	s1 := parallelTestSampler(t, 11)
	base, err := s1.SampleNParallel(n, workers)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2 := parallelTestSampler(t, 11)
	got, err := s2.SampleNParallelCtx(ctx, n, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Nodes {
		if base.Nodes[i] != got.Nodes[i] || base.Steps[i] != got.Steps[i] {
			t.Fatalf("sample %d differs under live context: (%d,%d) vs (%d,%d)",
				i, base.Nodes[i], base.Steps[i], got.Nodes[i], got.Steps[i])
		}
	}
}

// Cancellation mid-run must error with ctx's cause and stop charging
// queries within one batch.
func TestSampleNParallelCtxCancelStopsCharging(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rand.New(rand.NewSource(42)))
	// Simulated latency keeps the run alive long enough to cancel it
	// mid-flight on any scheduler.
	sim := osn.NewRemoteSim(osn.NewMemBackend(g), 200*time.Microsecond, 0, 8)
	net := osn.NewNetworkOn(sim)
	rng := rand.New(rand.NewSource(3))
	c := osn.NewClient(net, osn.CostUniqueNodes, rng)
	s, err := NewSampler(c, Config{
		Design: walk.SRW{}, Start: 0, WalkLength: 9,
		UseCrawl: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err = s.SampleNParallelCtx(ctx, 1000000, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Once the call has returned, every worker has drained: the meter must
	// be completely quiet.
	q0 := c.TotalQueries()
	time.Sleep(50 * time.Millisecond)
	if q1 := c.TotalQueries(); q1 != q0 {
		t.Fatalf("queries still growing after cancelled return: %d -> %d", q0, q1)
	}
}

// A pre-cancelled sequential run charges nothing and errors immediately.
func TestSampleNCtxPreCancelled(t *testing.T) {
	s := parallelTestSampler(t, 5)
	before := s.c.TotalQueries()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SampleNCtx(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Nodes) != 0 {
		t.Fatalf("pre-cancelled run returned %d samples", len(res.Nodes))
	}
	if after := s.c.TotalQueries(); after != before {
		t.Fatalf("pre-cancelled run charged %d queries", after-before)
	}
}

// The OnSample hook must observe exactly the returned result, in order,
// for both the sequential and the parallel engine.
func TestOnSampleHook(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := parallelTestSampler(t, 13)
		var events []SampleEvent
		s.OnSample = func(ev SampleEvent) { events = append(events, ev) }
		res, err := s.SampleNParallel(15, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != res.Len() {
			t.Fatalf("workers=%d: %d events for %d samples", workers, len(events), res.Len())
		}
		for i, ev := range events {
			if ev.Index != i || ev.Node != res.Nodes[i] ||
				ev.Steps != res.Steps[i] || ev.CostAfter != res.CostAfter[i] {
				t.Fatalf("workers=%d: event %d = %+v, want (%d,%d,%d,%d)", workers, i,
					ev, i, res.Nodes[i], res.Steps[i], res.CostAfter[i])
			}
		}
	}
}

// Injecting a prebuilt crawl table must be bit-identical to letting the
// sampler crawl for itself — the service-mode reuse path.
func TestPrebuiltCrawlInjection(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 3, rand.New(rand.NewSource(42)))

	run := func(inject bool) walk.Result {
		net := osn.NewNetwork(g)
		rng := rand.New(rand.NewSource(17))
		c := osn.NewClient(net, osn.CostUniqueNodes, rng)
		cfg := Config{
			Design: walk.SRW{}, Start: 0, WalkLength: 9,
		}
		if inject {
			ct, err := BuildCrawlTable(c, cfg.Design, cfg.Start, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Crawl = ct
		} else {
			cfg.UseCrawl = true
			cfg.CrawlHops = 2
		}
		s, err := NewSampler(c, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SampleN(12)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	own, injected := run(false), run(true)
	for i := range own.Nodes {
		if own.Nodes[i] != injected.Nodes[i] || own.CostAfter[i] != injected.CostAfter[i] {
			t.Fatalf("sample %d differs with injected crawl: (%d,%d) vs (%d,%d)",
				i, own.Nodes[i], own.CostAfter[i], injected.Nodes[i], injected.CostAfter[i])
		}
	}
}
