package cluster

// TestConformance is the path matrix: one runner drives every execution
// path of WALK-ESTIMATE — sequential, parallel, disk and simulated-remote
// backends, served over HTTP, warm and cached replays, absorbed faults, a
// 3-worker fleet and a worker hand-off — and checks each row two ways:
//
//   - bit identity: every row draws seq's (i, node, steps) rows (and
//     estimate, for estimate-mean specs) at any width, and pays the
//     unique-node charge of the first row of its width, since speculation
//     charges by width;
//   - the target distribution: one 4,000-sample stream per design on three
//     small graphs, whose total-variation distance to the exact π from
//     internal/linalg must stay within the bound declared per graph.
//
// The package sits at the top of the import graph, so the matrix reaches
// core, osn and serve directly and reuses the fleet harness.
//
// Determinism tests that stay outside the matrix, and why:
//   - TestResumeStreamBitIdentical and TestCrashKill9ResumeBitIdentical
//     (internal/serve) need serve's unexported crash hook and a child
//     process;
//   - the goldenWant tests (internal/core) are cross-commit pins of
//     absolute draws and charges;
//   - the scalar/batch kernel-equivalence tests (internal/core) use core's
//     unexported kernel override.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/osn"
	"repro/internal/serve"
	"repro/internal/walk"
)

// outcome is what one path produced for one spec.
type outcome struct {
	rows     []serve.Sample // (i, node, steps); Cost is left zero
	charge   int64          // unique-node charge, from a cold cache
	estimate float64        // estimate-mean specs only
	wire     [2]int64       // RemoteSim round trips and simulated wait (sim1 only)
}

// confRow is one execution path of the matrix.
type confRow struct {
	name    string
	workers int
	cases   []string // spec cases the row runs (see confCases)
	// repeat makes the row its own reference over a second run. rowsOnly
	// compares rows but not charges (a hand-off re-run pays its prefix
	// twice).
	repeat   bool
	rowsOnly bool
	run      func(t *testing.T, spec serve.JobSpec) outcome
}

var (
	libCases  = []string{"srw", "srw-nocrawl", "srw-noweighted", "srw-plain", "mhrw", "mhrw-nocrawl", "mhrw-noweighted", "mhrw-plain", "estimate"}
	svcCases  = []string{"srw", "mhrw", "estimate"}
	fleetCase = []string{"srw", "mhrw"}
)

// confCases are the specs of the bit-identity rows, normalized against the
// serving environment of the shared BA fixture, so library and served rows
// run the identical (start, walk length, crawl radius) the engine picks.
func confCases(t *testing.T, g *graph.Graph) map[string]serve.JobSpec {
	m := serve.NewManager(serve.NewEngine(osn.NewNetwork(g)), serve.Config{Runners: 1, WorkerBudget: 4})
	env := m.NormEnv()
	m.Close()
	cases := map[string]serve.JobSpec{
		"estimate": {Type: serve.TypeEstimateMean, Count: 10, Seed: 3},
	}
	// no_weighted normalizes away (draw version 4): the -noweighted and
	// -plain cases run the specs of their crawl twins, so every path shows
	// the field inert.
	for _, d := range []string{"srw", "mhrw"} {
		cases[d] = serve.JobSpec{Design: d, Count: 20, Seed: 7}
		cases[d+"-nocrawl"] = serve.JobSpec{Design: d, Count: 20, Seed: 7, NoCrawl: true}
		cases[d+"-noweighted"] = serve.JobSpec{Design: d, Count: 20, Seed: 7, NoWeighted: true}
		cases[d+"-plain"] = serve.JobSpec{Design: d, Count: 20, Seed: 7, NoCrawl: true, NoWeighted: true}
	}
	for name, spec := range cases {
		norm, err := serve.NormalizeSpec(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = norm
	}
	return cases
}

// libRun drives core.Sampler directly over be with the spec's parameters:
// SampleN at one worker, SampleNParallel above. Every library row checks
// the sampler's own accounting.
func libRun(t *testing.T, be osn.Backend, spec serve.JobSpec) outcome {
	t.Helper()
	rng := fastrand.New(spec.Seed)
	c := osn.NewClient(osn.NewNetworkOn(be), osn.CostUniqueNodes, rng)
	d, err := walk.ByName(spec.Design)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSampler(c, core.Config{
		Design:         d,
		Start:          *spec.Start,
		WalkLength:     spec.WalkLength,
		UseCrawl:       !spec.NoCrawl,
		CrawlHops:      spec.CrawlHops,
		UseWeighted:    !spec.NoWeighted,
		BackwardReps:   spec.BackwardReps,
		VarianceBudget: spec.VarianceBudget,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var res walk.Result
	if spec.Workers > 1 {
		res, err = s.SampleNParallel(spec.Count, spec.Workers)
	} else {
		res, err = s.SampleN(spec.Count)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != spec.Count {
		t.Fatalf("%d samples, want %d", res.Len(), spec.Count)
	}
	if r := s.AcceptanceRate(); r <= 0 || r > 1 {
		t.Errorf("acceptance rate %v outside (0, 1]", r)
	}
	if s.TotalSteps() != s.ForwardSteps()+s.BackwardSteps() {
		t.Errorf("steps: total %d != forward %d + backward %d", s.TotalSteps(), s.ForwardSteps(), s.BackwardSteps())
	}
	var o outcome
	for i, v := range res.Nodes {
		o.rows = append(o.rows, serve.Sample{Index: i, Node: v, Steps: res.Steps[i]})
	}
	if spec.Type == serve.TypeEstimateMean {
		if o.estimate, err = agg.EstimateMean(c, d, spec.Attr, res.Nodes); err != nil {
			t.Fatal(err)
		}
	}
	o.charge = c.TotalQueries()
	return o
}

// served runs specs one after another on one fresh engine over net, behind
// serve.Handler on an httptest server, reading each job's NDJSON stream and
// final status. The outcome's charge is the engine's fleet meter.
func served(t *testing.T, net *osn.Network, cfg serve.Config, specs ...serve.JobSpec) (outcome, []JobStatus) {
	t.Helper()
	m := serve.NewManager(serve.NewEngine(net), cfg)
	srv := httptest.NewServer(serve.Handler(m))
	defer func() { srv.Close(); m.Close() }()
	api := &testFleet{coSrv: srv} // the single daemon speaks the coordinator's job API
	var o outcome
	var sts []JobStatus
	for _, spec := range specs {
		id := api.submit(t, spec).ID
		o = streamOutcome(t, api, id, nil)
		sts = append(sts, jobStatus(t, srv.URL, id))
	}
	o.charge = m.Engine().CacheStats().Queries
	last := sts[len(sts)-1]
	if last.Result == nil {
		t.Fatalf("job without result: %+v", last)
	}
	if last.Result.Estimate != nil {
		o.estimate = *last.Result.Estimate
	}
	if len(specs) == 1 && last.Result.Queries != o.charge {
		t.Errorf("job billed %d queries, the engine charged %d", last.Result.Queries, o.charge)
	}
	return o, sts
}

// streamOutcome reads a job's stream from api and requires a done terminal.
func streamOutcome(t *testing.T, api *testFleet, id string, onRow func(n int)) outcome {
	t.Helper()
	rows, term := api.readStream(t, id, onRow)
	if term.State != string(serve.JobDone) {
		t.Fatalf("terminal line: %+v", term)
	}
	var o outcome
	for _, r := range rows {
		o.rows = append(o.rows, serve.Sample{Index: *r.I, Node: r.Node, Steps: r.Steps})
	}
	return o
}

func jobStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// faultRun serves one spec over FaultSim + ResilientBackend at the given
// transient rate, with every fault absorbed by near-instant retries.
func faultRun(g *graph.Graph, rate float64) func(*testing.T, serve.JobSpec) outcome {
	return func(t *testing.T, spec serve.JobSpec) outcome {
		fs, err := osn.NewFaultSim(osn.NewMemBackend(g), osn.FaultConfig{
			Seed:          77,
			TransientRate: rate,
			RateLimitRate: rate / 10,
			RetryAfter:    20 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := osn.NewResilientBackend(fs, osn.ResilientPolicy{
			MaxRetries:      6,
			BaseBackoff:     10 * time.Microsecond,
			MaxBackoff:      100 * time.Microsecond,
			BreakerCooldown: 10 * time.Millisecond,
		})
		o, _ := served(t, osn.NewNetworkOn(res), serve.Config{Runners: 1, WorkerBudget: 4}, spec)
		injected, st := fs.Stats().Total(), res.Stats()
		switch {
		case rate == 0 && injected != 0:
			t.Errorf("zero-rate injector injected %d faults", injected)
		case rate > 0 && (injected == 0 || st.Absorbed == 0 || st.Failures != 0):
			t.Errorf("injected %d, absorbed %d, failures %d: want every fault absorbed", injected, st.Absorbed, st.Failures)
		}
		return o
	}
}

// fleetRun runs one spec through a fresh 3-worker fleet over mkNet. With
// kill set, the placed worker is killed after the 10th row.
func fleetRun(t *testing.T, mkNet func() *osn.Network, spec serve.JobSpec, kill bool) outcome {
	t.Helper()
	ccfg := CoordinatorConfig{}
	if kill {
		ccfg.HeartbeatTimeout = 300 * time.Millisecond
	}
	tf := startFleet(t, 3, mkNet, serve.Config{Runners: 1, WorkerBudget: 4}, ccfg)
	defer tf.close()
	st := tf.submit(t, spec)
	killed := false
	o := streamOutcome(t, tf, st.ID, func(n int) {
		if kill && n == 10 {
			killed = true
			tf.wks[st.Worker].kill()
		}
	})
	final := jobStatus(t, tf.coSrv.URL, st.ID)
	sum := tf.co.Summary(true)
	o.charge = sum.FleetQueries
	if kill {
		if !killed || tf.co.handoffs.Load() < 1 || final.Attempts < 2 || final.Worker == st.Worker {
			t.Errorf("hand-off: killed %v, %d hand-offs, %d attempts, placed on %d (killed %d)",
				killed, tf.co.handoffs.Load(), final.Attempts, final.Worker, st.Worker)
		}
		return o
	}
	if final.Result == nil || final.Result.Queries != o.charge {
		t.Errorf("job billed %+v, fleet charged %d", final.Result, o.charge)
	}
	for _, ws := range sum.Workers {
		if ws.OwnedUnique <= 0 {
			t.Errorf("worker %d owns no charge: %+v", ws.Index, sum.Workers)
		}
	}
	return o
}

func TestConformance(t *testing.T) {
	g := testGraph()
	cases := confCases(t, g)
	csr := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.SaveCSR(csr, g, nil); err != nil {
		t.Fatal(err)
	}
	disk, mapped, err := osn.OpenDiskBackend(csr)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	mem := func(t *testing.T, spec serve.JobSpec) outcome { return libRun(t, osn.NewMemBackend(g), spec) }
	sim := func(t *testing.T, spec serve.JobSpec) outcome {
		rs := osn.NewRemoteSim(osn.NewMemBackend(g), 300*time.Microsecond, 100*time.Microsecond, 8)
		o := libRun(t, rs, spec)
		if spec.Workers == 1 {
			// One client's access pattern fixes the round trips; a worker
			// pool may race two misses of one node to the wire.
			o.wire = [2]int64{rs.RoundTrips(), int64(rs.SimulatedWait())}
			if o.wire[0] <= 0 || o.wire[1] <= 0 {
				t.Errorf("degenerate sim run: %v", o.wire)
			}
		}
		return o
	}
	srv := func(cacheBytes int64, repeat bool) func(*testing.T, serve.JobSpec) outcome {
		return func(t *testing.T, spec serve.JobSpec) outcome {
			specs := []serve.JobSpec{spec}
			if repeat {
				specs = append(specs, spec)
			}
			o, sts := served(t, osn.NewNetwork(g), serve.Config{Runners: 1, WorkerBudget: 4, CacheBytes: cacheBytes}, specs...)
			if repeat {
				// The second job must add no charge, and be a replay
				// exactly when the result cache is on.
				r := sts[1].Result
				if r.Queries != 0 || r.Cached != (cacheBytes >= 0) {
					t.Errorf("repeat job: queries %d, cached %v", r.Queries, r.Cached)
				}
			}
			return o
		}
	}
	fleet := func(kill bool) func(*testing.T, serve.JobSpec) outcome {
		return func(t *testing.T, spec serve.JobSpec) outcome {
			mkNet := func() *osn.Network { return osn.NewNetwork(g) }
			if kill {
				mkNet = func() *osn.Network {
					return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), time.Millisecond, 0, 8))
				}
			}
			return fleetRun(t, mkNet, spec, kill)
		}
	}

	rows := []confRow{
		{name: "seq", workers: 1, cases: libCases, repeat: true, run: mem},
		{name: "par2", workers: 2, cases: libCases, repeat: true, run: mem},
		{name: "par4", workers: 4, cases: libCases, repeat: true, run: mem},
		{name: "disk1", workers: 1, cases: libCases,
			run: func(t *testing.T, spec serve.JobSpec) outcome { return libRun(t, disk, spec) }},
		{name: "disk4", workers: 4, cases: libCases,
			run: func(t *testing.T, spec serve.JobSpec) outcome { return libRun(t, disk, spec) }},
		{name: "sim1", workers: 1, cases: libCases, repeat: true, run: sim},
		{name: "sim4", workers: 4, cases: libCases, run: sim},
		{name: "served1", workers: 1, cases: svcCases, run: srv(0, false)},
		{name: "served2", workers: 2, cases: svcCases, run: srv(0, false)},
		{name: "warm", workers: 2, cases: fleetCase, run: srv(-1, true)},
		{name: "cached", workers: 2, cases: fleetCase, run: srv(0, true)},
		{name: "faults0", workers: 2, cases: svcCases, run: faultRun(g, 0)},
		{name: "faults1", workers: 1, cases: svcCases, run: faultRun(g, 0.01)},
		{name: "faults5", workers: 2, cases: svcCases, run: faultRun(g, 0.05)},
		{name: "fleet3", workers: 2, cases: fleetCase, run: fleet(false)},
		{name: "handoff", workers: 2, cases: fleetCase[:1], rowsOnly: true, run: fleet(true)},
	}
	seq := map[string]outcome{}  // per case: the rows every row draws
	paid := map[string]outcome{} // per case and width: the charge every row pays
	for _, row := range rows {
		for _, c := range row.cases {
			spec := cases[c]
			spec.Workers = row.workers
			t.Run(row.name+"/"+c, func(t *testing.T) {
				o := row.run(t, spec)
				if row.repeat {
					sameOutcome(t, "repeat run", o, row.run(t, spec), true, true)
				}
				if row.name == "seq" {
					seq[c] = o
				} else if ref, ok := seq[c]; ok {
					sameOutcome(t, "seq", o, ref, false, false)
				} else {
					t.Fatalf("reference seq/%s did not run", c)
				}
				key := fmt.Sprintf("%s at width %d", c, row.workers)
				if ref, ok := paid[key]; !ok {
					paid[key] = o
				} else if !row.rowsOnly {
					sameOutcome(t, key, o, ref, true, false)
				}
			})
		}
	}

	t.Run("distribution", testTargetDistribution)
}

// sameOutcome requires got to reproduce want: the rows and estimate always,
// the charge when charges is set, the RemoteSim meters when wire is set.
func sameOutcome(t *testing.T, what string, got, want outcome, charges, wire bool) {
	t.Helper()
	if len(got.rows) != len(want.rows) {
		t.Fatalf("vs %s: %d rows, want %d", what, len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("vs %s: row %d is %+v, want %+v", what, i, got.rows[i], want.rows[i])
		}
	}
	if got.estimate != want.estimate {
		t.Fatalf("vs %s: estimate %v, want %v", what, got.estimate, want.estimate)
	}
	if charges && got.charge != want.charge {
		t.Fatalf("vs %s: charge %d, want %d", what, got.charge, want.charge)
	}
	if wire && got.wire != want.wire {
		t.Fatalf("vs %s: round trips and wait %v, want %v", what, got.wire, want.wire)
	}
}

// testTargetDistribution is the matrix's distribution column: one stream
// of confN samples per (graph, design) — every width draws it — whose
// total-variation distance to the design's exact stationary π must stay
// within the graph's declared bound. The bounds sit just above the values
// measured at the commit that introduced the matrix, so a bias cannot grow
// unseen; a change of draws moves one only when a seed sweep shows
// sampling noise (EXPERIMENTS.md), as BA(40,2) SRW's did at draw version
// 3. Barbell(21)'s comes from the bootstrapped 10th-percentile acceptance
// scale on a low-conductance graph, and Hypercube(5)'s is structural — the
// graph is bipartite and t = 2·5+1 is odd, so p_t is zero on half the
// nodes and every stream sits exactly 0.5 from π.
func testTargetDistribution(t *testing.T) {
	const confN = 4000
	graphs := []struct {
		name string
		g    *graph.Graph
		tv   map[string]float64 // per design
	}{
		// Measured maxima: SRW 0.051, MHRW 0.115.
		{"ba40", gen.BarabasiAlbert(40, 2, rand.New(rand.NewSource(40))), map[string]float64{"srw": 0.055, "mhrw": 0.13}},
		// Measured maxima: SRW 0.388, MHRW 0.328.
		{"barbell21", gen.Barbell(21), map[string]float64{"srw": 0.40, "mhrw": 0.34}},
		// Exactly 0.5 on every path.
		{"hypercube5", gen.Hypercube(5), map[string]float64{"srw": 0.501, "mhrw": 0.501}},
	}
	start := 0
	for _, gc := range graphs {
		for _, design := range []string{"srw", "mhrw"} {
			name := fmt.Sprintf("%s %s", gc.name, design)
			pi := linalg.UniformStationary(gc.g.NumNodes())
			if design == "srw" {
				var err error
				if pi, err = linalg.SRWStationary(gc.g); err != nil {
					t.Fatal(err)
				}
			}
			spec := serve.JobSpec{Design: design, Count: confN, Seed: 11, Start: &start, Workers: 1,
				WalkLength: 2*gc.g.Diameter() + 1, CrawlHops: 1, BackwardReps: 4, VarianceBudget: 8}
			counts := make([]int, gc.g.NumNodes())
			for _, r := range libRun(t, osn.NewMemBackend(gc.g), spec).rows {
				counts[r.Node]++
			}
			dist := tv(counts, pi)
			t.Logf("%s: TV %.3f", name, dist)
			if dist > gc.tv[design] {
				t.Errorf("%s: TV to π %.3f above the bound %.3f", name, dist, gc.tv[design])
			}
		}
	}
}

// tv is the total-variation distance between the empirical distribution of
// counts and pi.
func tv(counts []int, pi []float64) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	var d float64
	for v, p := range pi {
		d += math.Abs(float64(counts[v])/float64(n) - p)
	}
	return d / 2
}
