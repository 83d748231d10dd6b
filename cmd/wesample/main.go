// Command wesample draws node samples from a graph through the simulated
// restricted-access interface, with either a traditional random-walk
// sampler or WALK-ESTIMATE, and reports the sampled nodes, query cost, and
// an AVG-degree estimate.
//
// The graph is served through a pluggable access backend: the in-memory
// default, a memory-mapped binary CSR file (million-node graphs open in
// O(1) and sample without holding edges on the heap), or a simulated remote
// API that charges wall-clock latency per round trip — which is how the
// paper's "walk, not wait" savings become measurable as seconds, not just
// query counts.
//
// Usage:
//
//	wesample -in graph.txt -sampler we -design srw -count 100
//	wesample -in graph.txt -sampler we -design srw -count 100 -workers 8
//	wesample -in graph.csr -backend disk -sampler we -count 100
//	wesample -in graph.txt -backend sim -latency 50ms -jitter 10ms -workers 8
//	wesample -in graph.txt -sampler geweke -design mhrw -count 100
//	wesample -in graph.txt -sampler longrun -burnin 500 -thin 5
//	wesample -in graph.txt -faultrate 0.01 -retries 8 -count 100
//
// With -faultrate > 0 (or -outage) the backend is wrapped with a seeded
// deterministic fault injector plus the retry/backoff/circuit-breaker
// middleware: transient faults are absorbed below the sampler (the sample
// sequence stays bit-identical to a fault-free run under the same -seed),
// and an unrecoverable backend failure aborts the run with a typed error
// while the samples drawn so far are still printed.
//
// Binary CSR inputs (written by wegen -format csr) are auto-detected; with
// -backend mem they are decoded to the heap, with -backend disk they are
// memory-mapped in place.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	wnw "repro"
)

func main() {
	var (
		in      = flag.String("in", "", "graph file: edge list or binary CSR (required)")
		backend = flag.String("backend", "mem", "access backend: mem | disk | sim")
		latency = flag.Duration("latency", 50*time.Millisecond, "simulated per-round-trip latency (sim backend)")
		jitter  = flag.Duration("jitter", 0, "simulated latency jitter, uniform in ±jitter (sim backend)")
		fanout  = flag.Int("fanout", 0, "simulated concurrent connections for batch requests (sim backend; 0 = default)")
		sampler = flag.String("sampler", "we", "we | geweke | fixed | longrun")
		design  = flag.String("design", "srw", "input design: srw | mhrw")
		count   = flag.Int("count", 100, "number of samples")
		start   = flag.Int("start", -1, "start node (default: max-degree node)")
		walkLen = flag.Int("walklen", 0, "WE walk length (default 2·diameter+1)")
		hops    = flag.Int("hops", 2, "WE initial-crawl depth")
		burnin  = flag.Int("burnin", 200, "burn-in steps (fixed, longrun)")
		thin    = flag.Int("thin", 1, "thinning (longrun)")
		geweke  = flag.Float64("geweke", 0.1, "Geweke threshold")
		maxStep = flag.Int("maxsteps", 2000, "max steps per baseline walk")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 1, "parallel estimation workers (we sampler only)")
		quiet   = flag.Bool("quiet", false, "suppress per-sample output")

		faultRate = flag.Float64("faultrate", 0, "per-round-trip backend fault probability in [0,1) (0 disables injection)")
		faultSeed = flag.Int64("fault-seed", 1, "seed of the deterministic fault schedule")
		outage    = flag.String("outage", "", "full-outage window start+dur from startup, e.g. 2s+500ms")
		retries   = flag.Int("retries", 0, "max retries per backend access (0 = policy default)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "wesample: -in is required")
		os.Exit(2)
	}
	faults := wnw.FaultOptions{Rate: *faultRate, Seed: *faultSeed, Outage: *outage, Retries: *retries}
	if err := run(*in, *backend, *latency, *jitter, *fanout, faults, *sampler, *design,
		*count, *start, *walkLen, *hops, *burnin, *thin, *geweke, *maxStep,
		*seed, *workers, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "wesample:", err)
		os.Exit(1)
	}
}

func run(in, backendName string, latency, jitter time.Duration, fanout int,
	faults wnw.FaultOptions, samplerName, designName string, count, start, walkLen, hops,
	burnin, thin int, geweke float64, maxStep int, seed int64, workers int, quiet bool) error {
	be, cleanup, err := wnw.OpenBackend(in, backendName, latency, jitter, fanout)
	if err != nil {
		return err
	}
	defer cleanup()
	be, fsim, resb, err := wnw.WrapFaults(be, faults)
	if err != nil {
		return err
	}
	// Under fault injection the run gets a cancellable context carrying the
	// failure-cancel hook: when the resilience layer gives up, the sampler's
	// context check aborts the run with the typed cause.
	ctx := context.Background()
	if resb != nil {
		cctx, cancel := context.WithCancelCause(context.Background())
		ctx = wnw.WithFailureCancel(cctx, cancel)
	}
	reportFaults := func() {
		if fsim == nil {
			return
		}
		st, rs := fsim.Stats(), resb.Stats()
		fmt.Fprintf(os.Stderr, "faults: %d/%d round trips faulted; retries %d (absorbed %d, failures %d), breaker %s\n",
			st.Total(), st.Attempts, rs.Retries, rs.Absorbed, rs.Failures, rs.Breaker)
	}
	d, err := wnw.DesignByName(designName)
	if err != nil {
		return err
	}
	// All walk-driving randomness comes from the xoshiro256++ generator:
	// forward walks, backward estimates, and the traditional baselines
	// draw from one fast stream instead of math/rand's table-walking
	// source. Seeded identically, runs remain reproducible — but sample
	// sequences differ from pre-migration builds (the stream changed).
	rng := wnw.NewFastRNG(seed)
	net := wnw.NewNetworkOn(be)
	g := net.Graph()
	if start < 0 {
		for v := 0; v < g.NumNodes(); v++ {
			if start < 0 || g.Degree(v) > g.Degree(start) {
				start = v
			}
		}
	}
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	c.BindContext(ctx)

	began := time.Now()
	var res wnw.SampleResult
	switch samplerName {
	case "we":
		if walkLen <= 0 {
			// EstimateDiameter's double-sweep BFS keeps math/rand (its
			// signature predates the RNG facade); it only picks the
			// default walk length, not any sample.
			walkLen = 2*g.EstimateDiameter(4, rand.New(rand.NewSource(seed))) + 1
		}
		s, err := wnw.NewWalkEstimate(c, wnw.WEConfig{
			Design:      d,
			Start:       start,
			WalkLength:  walkLen,
			UseCrawl:    true,
			CrawlHops:   hops,
			UseWeighted: true,
		}, rng)
		if err != nil {
			return err
		}
		res, err = s.SampleNParallelCtx(ctx, count, workers)
		if err != nil {
			var bu *wnw.BackendUnavailableError
			if errors.As(err, &bu) {
				fmt.Fprintf(os.Stderr, "backend unavailable (%s after %d attempts); %d of %d samples drawn before the failure:\n",
					bu.Reason, bu.Attempts, res.Len(), count)
				if !quiet {
					for i, v := range res.Nodes {
						fmt.Printf("%d %d %d\n", v, res.Steps[i], res.CostAfter[i])
					}
				}
				reportFaults()
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "acceptance-rate %.4f, steps %d (fwd %d / bwd %d)\n",
			s.AcceptanceRate(), s.TotalSteps(), s.ForwardSteps(), s.BackwardSteps())
	case "geweke":
		res, err = wnw.ManyShortRuns(c, d, start, count, wnw.Geweke{Threshold: geweke}, maxStep, rng)
		if err != nil {
			return err
		}
	case "fixed":
		res, err = wnw.ManyShortRuns(c, d, start, count, wnw.FixedBurnIn{N: burnin}, maxStep+burnin, rng)
		if err != nil {
			return err
		}
	case "longrun":
		res, err = wnw.OneLongRun(c, d, start, burnin, count, thin, rng)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown sampler %q", samplerName)
	}
	elapsed := time.Since(began)

	if !quiet {
		for i, v := range res.Nodes {
			fmt.Printf("%d %d %d\n", v, res.Steps[i], res.CostAfter[i])
		}
	}
	est, err := wnw.EstimateMean(c, d, wnw.AttrDegree, res.Nodes)
	if err != nil {
		return err
	}
	truth := g.AvgDegree()
	fmt.Fprintf(os.Stderr, "samples %d, query-cost %d, AVG-degree estimate %.4f (truth %.4f, rel-err %.4f)\n",
		res.Len(), c.TotalQueries(), est, truth, wnw.RelativeError(est, truth))
	if sim, ok := be.(*wnw.RemoteSim); ok {
		fmt.Fprintf(os.Stderr, "sim backend: %d round trips at %v±%v (%v simulated latency charged), wall-clock %v (%.1f ms/sample)\n",
			sim.RoundTrips(), latency, jitter, sim.SimulatedWait().Round(time.Millisecond),
			elapsed.Round(time.Millisecond),
			float64(elapsed.Milliseconds())/float64(max(1, res.Len())))
	}
	reportFaults()
	return nil
}
