package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// The fixture every workload shares: one Barabási–Albert graph and the
// sampler configuration BenchmarkParallelWE uses (SRW from node 0, walk
// length 13, 2-hop crawl table, weighted backward sampling, 4 backward reps,
// variance budget 8). Service jobs spell the same configuration out in their
// specs, so one job seed yields the same rows through the library, the
// daemon and the fleet.
//
// The graph does not depend on --seed: across BA graphs the start node's
// neighbourhood alone moves the cost of a sample by ±15%, which would drown
// the differences between two commits. --seed drives every job list instead.
const (
	graphSeed   = 7 // as BenchmarkParallelWE
	graphDegree = 5 // BA edges per new node
	jobCount    = 24
	startNode   = 0
	walkLen     = 13
	crawlHops   = 2
	backReps    = 4
	varBudget   = 8
)

// Job-seed streams. Job i of every workload's job list has seed
// jobSeed(seed, streamJobs, i), so lib-mem-par2 runs a prefix of
// lib-mem-seq's list and serve-open job i is lib-mem-seq job i.
const (
	streamJobs = 1 // the measured job list
	streamWarm = 2 // serve-open warm-up jobs
	streamHot  = 3 // fleet-zipf hot specs
	streamMix  = 4 // fleet-zipf hot/fresh draw
)

func jobSeed(seed int64, stream, i int) int64 {
	s := fastrand.Mix(seed, int64(stream), int64(i))
	if s == 0 {
		s = 1 // a service spec treats seed 0 as "default"
	}
	return s
}

// params sizes a run. fullScale is what the command runs; the smoke test
// shrinks it.
type params struct {
	seed      int64 // drives every job list
	seconds   float64
	nodes     int
	setupReps int // set-ups per run; setup_s is their median
	warmup    int // serve-open warm-up jobs
	hot       int // fleet-zipf hot specs
}

func fullScale(seed int64, seconds float64) params {
	return params{seed: seed, seconds: seconds, nodes: 50000, setupReps: 3, warmup: 64, hot: 32}
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// libConfig is the fixture's sampler configuration over a prebuilt crawl
// table, injected the way serve.Engine injects its memoized one.
func libConfig(ct *core.CrawlTable) core.Config {
	return core.Config{
		Design:         walk.SRW{},
		Start:          startNode,
		WalkLength:     walkLen,
		UseCrawl:       true,
		CrawlHops:      crawlHops,
		Crawl:          ct,
		UseWeighted:    true,
		BackwardReps:   backReps,
		VarianceBudget: varBudget,
	}
}

// fixture is one set-up's state. close releases it in reverse order.
type fixture struct {
	g       *graph.Graph
	be      osn.Backend  // the untimed backend the networks are built on
	net     *osn.Network // set-up and probe traffic (and serve-open's daemon)
	crawl   *core.CrawlTable
	crawlMS float64
	svc     *daemon
	fl      *fleet
	// setupSamples is how many samples set-up traffic drew from the service.
	setupSamples int64
	closers      []func()
}

func (fx *fixture) close() {
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
	fx.closers = nil
}

// newFixture generates the graph, builds the network (over a simulated 1 ms
// remote API when sim is set) and the crawl table.
func newFixture(p params, tr *tracer, sim bool) (*fixture, error) {
	g := gen.BarabasiAlbert(p.nodes, graphDegree, fastrand.New(graphSeed))
	be := osn.Backend(osn.NewMemBackend(g))
	if sim {
		be = osn.NewRemoteSim(be, time.Millisecond, 0, osn.DefaultFanout)
	}
	net := osn.NewNetworkOn(tr.wrap(be, nil))
	c := osn.NewClient(net, osn.CostUniqueNodes, fastrand.New(graphSeed))
	t0 := time.Now()
	ct, err := core.BuildCrawlTable(c, walk.SRW{}, startNode, crawlHops)
	if err != nil {
		return nil, fmt.Errorf("crawl table: %w", err)
	}
	if tr != nil {
		tr.add(0, -1, "core.crawl.build", tr.at(t0), tr.now())
	}
	return &fixture{g: g, be: be, net: net, crawl: ct, crawlMS: ms(time.Since(t0))}, nil
}

// workload is one benchmark workload: a set-up (timed, repeated) and a
// measured window. cpuBound marks a workload whose wall time is spent on the
// CPU, not waiting on a simulated remote API, so its latencies and
// closed-loop throughput are reported at the reference host speed too (see
// hostProbe).
type workload struct {
	name     string
	cpuBound bool
	setup    func(p params, tr *tracer) (*fixture, error)
	measure  func(fx *fixture, p params, tr *tracer, hp *hostProbe) (*phase, error)
}

var workloads = []workload{
	// The CPU-bound sequential backward-estimation kernel: a fresh sampler per
	// job, no pipeline, no shared cache, no service.
	{
		name:     "lib-mem-seq",
		cpuBound: true,
		setup:    setupLib(false),
		measure:  measureLib(memSeq),
	},
	// The same job list through SampleNParallel(24, 2): isolates the
	// speculative pipeline's synchronisation cost.
	{
		name:     "lib-mem-par2",
		cpuBound: true,
		setup:    setupLib(false),
		measure:  measureLib(memPar2),
	},
	// Fetch-bound, the paper's remote-API setting: batched prefetch and the
	// batch kernel do the work while the CPU kernels idle.
	{
		name:    "lib-sim-par2",
		setup:   setupLib(true),
		measure: measureLib(simPar2),
	},
	// The daemon path at a fixed open-loop rate: queue, runners, NDJSON
	// streaming, shared neighbor cache, result-cache writes.
	{
		name:     "serve-open",
		cpuBound: true,
		setup:    setupServe,
		measure:  measureServe,
	},
	// The cluster path: zipfian repeats read the coordinator's result cache,
	// fresh jobs are dispatched, relayed and owner-resolved.
	{
		name:     "fleet-zipf",
		cpuBound: true,
		setup:    setupFleet,
		measure:  measureFleet,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is one measured window of a workload plus its set-up timings.
type phase struct {
	attempted, failed int64
	wrong             int64 // outputs that failed verification (also counted in failed)
	notes             []string

	samples        int64
	elapsed        time.Duration
	queries, steps int64
	// chargedSamples, when set, is the sample count queries is spread over
	// instead of samples. The services set it: their neighbor cache lives
	// across jobs, so their charge is amortized over everything served since
	// set-up began (see measureServe).
	chargedSamples int64
	// Per completed job: the program's time to the job's end and to its first
	// sample, counted from when the job was sent, and (open loops only) how
	// long after its due time the generator sent it.
	jobMS, firstMS, waitMS []float64
	hashes                 []uint64  // row hash of each of the first digestJobs jobs
	lateMS                 []float64 // generator lateness of every fired job (open loops)
	use0, use1             usage
	layers                 map[string]float64

	setupS  []float64
	crawlMS float64
	// slowdown is the host's speed over the window relative to the
	// reference, and pauseWall and pauseCPU what the probe's pauses took out
	// of the window (see hostProbe).
	slowdown            float64
	pauseWall, pauseCPU time.Duration
}

func newPhase() *phase { return &phase{layers: make(map[string]float64)} }

const maxNotes = 20

func (ph *phase) note(format string, args ...any) {
	if len(ph.notes) < maxNotes {
		ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
	}
}

// fail counts a job that did not complete (shed, error).
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.note(format, args...)
}

// mismatch counts an output that failed verification.
func (ph *phase) mismatch(format string, args ...any) {
	ph.failed++
	ph.wrong++
	ph.note(format, args...)
}

// keepHash records job i's row hash if it is one the digest covers.
func (ph *phase) keepHash(i int, h uint64) {
	if i < digestJobs {
		for len(ph.hashes) <= i {
			ph.hashes = append(ph.hashes, 0)
		}
		ph.hashes[i] = h
	}
}

// merge folds another caller's share of the same window into ph.
func (ph *phase) merge(o *phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.wrong += o.wrong
	for _, n := range o.notes {
		ph.note("%s", n)
	}
	ph.samples += o.samples
	ph.queries += o.queries
	ph.steps += o.steps
	ph.jobMS = append(ph.jobMS, o.jobMS...)
	ph.firstMS = append(ph.firstMS, o.firstMS...)
	for i, h := range o.hashes {
		if h != 0 {
			ph.keepHash(i, h)
		}
	}
}

// cpu is the process CPU time the window spent outside probe pauses.
func (ph *phase) cpu() time.Duration { return ph.use1.cpu - ph.use0.cpu - ph.pauseCPU }

// endToEnd returns the end-to-end metrics with the program's time scaled to
// a host running at speed 1/h of the reference (see hostProbe): h = 1 gives
// them as measured, h = ph.slowdown as the command reports them. Scaled are
// CPU time, a closed loop's throughput, and the program's part of each
// latency; an open loop's throughput (set by the offered rate) and its
// generator's wait before sending a job are not the program's and stay as
// measured. A workload without a probe has slowdown 1.
func (ph *phase) endToEnd(h float64) map[string]float64 {
	s := float64(ph.samples)
	charged := s
	if ph.chargedSamples > 0 {
		charged = float64(ph.chargedSamples)
	}
	sps := ratio(s, (ph.elapsed - ph.pauseWall).Seconds())
	if ph.lateMS == nil {
		sps *= h
	}
	job, first := ph.latencies(h)
	return map[string]float64{
		"samples_per_s":       sps,
		"queries_per_sample":  ratio(float64(ph.queries), charged),
		"steps_per_sample":    ratio(float64(ph.steps), s),
		"job_p50_ms":          percentile(job, 50),
		"job_p90_ms":          percentile(job, 90),
		"first_sample_p50_ms": percentile(first, 50),
		"cpu_ms_per_sample":   ratio(ms(ph.cpu()), s) / h,
		"peak_rss_mb":         ph.use1.maxRSSMB,
		"setup_s":             percentile(ph.setupS, 50),
	}
}

// latencies returns each completed job's latency and time to its first
// sample, the program's part scaled as in endToEnd.
func (ph *phase) latencies(h float64) (job, first []float64) {
	job = make([]float64, len(ph.jobMS))
	first = make([]float64, len(ph.firstMS))
	for i := range job {
		wait := 0.0
		if ph.waitMS != nil {
			wait = ph.waitMS[i]
		}
		job[i] = wait + ph.jobMS[i]/h
		first[i] = wait + ph.firstMS[i]/h
	}
	return job, first
}

// finishLayers fills the per-layer metrics every workload shares and sets
// the rest to 0 where the workload left them unset.
func (ph *phase) finishLayers(tr *tracer) {
	s := float64(ph.samples)
	ph.layers["core.crawl.build_ms"] = ph.crawlMS
	ph.layers["runtime.alloc_bytes_per_sample"] = ratio(float64(ph.use1.alloc-ph.use0.alloc), s)
	ph.layers["runtime.gc_cpu_fraction"] = ratio(ph.use1.gcCPU-ph.use0.gcCPU, ph.use1.totalCPU-ph.use0.totalCPU)
	ph.layers["bench.gen_late_p99_ms"] = percentile(ph.lateMS, 99)
	if tr != nil {
		calls := float64(tr.calls.Load())
		ph.layers["osn.backend.calls_per_sample"] = ratio(calls, s)
		ph.layers["osn.backend.elems_per_call"] = ratio(float64(tr.elems.Load()), calls)
		ph.layers["osn.backend.wait_ms_per_sample"] = ratio(ms(time.Duration(tr.waitNS.Load())), s)
	}
	for _, d := range perLayer {
		if _, ok := ph.layers[d.name]; !ok {
			ph.layers[d.name] = 0
		}
	}
}

// runPhase sets the workload up p.setupReps times (keeping the last set-up),
// then measures one window. The caller closes the returned fixture.
func runPhase(w workload, p params, tr *tracer) (*phase, *fixture, error) {
	var fx *fixture
	var setups []float64
	for i := 0; i < p.setupReps; i++ {
		if fx != nil {
			// Collect the discarded set-up before the next, so the peak RSS
			// does not depend on when the collector happened to run.
			fx.close()
			runtime.GC()
		}
		if tr != nil {
			tr.restart()
		}
		t0 := time.Now()
		f, err := w.setup(p, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fx = f
	}
	// Start the window from a collected heap, so garbage from earlier
	// set-ups is not collected on the window's time.
	runtime.GC()
	if tr != nil {
		tr.resetCounters()
	}
	var hp *hostProbe
	if w.cpuBound {
		hp = newHostProbe(fx.g)
	}
	ph, err := w.measure(fx, p, tr, hp)
	if err != nil {
		fx.close()
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ph.setupS = setups
	ph.crawlMS = fx.crawlMS
	ph.slowdown = hp.slowdown()
	if hp != nil {
		ph.pauseWall, ph.pauseCPU = hp.pauseWall, hp.pauseCPU
	}
	ph.finishLayers(tr)
	return ph, fx, nil
}
