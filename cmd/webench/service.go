package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/serve"
	"repro/internal/walk"
)

// Offered open-loop rates (jobs/s). serve-open saturates near 440 jobs/s on
// a 2-CPU host and fleet-zipf's fresh jobs near 100 jobs/s, so both run at a
// third of saturation or less: the latency percentiles then describe the
// service, not a backlog, and a slower spell of the host does not tip the
// queue into shedding.
const (
	serveRate = 150.0
	fleetRate = 150.0
	hotShare  = 0.8 // fleet-zipf jobs that repeat a hot spec
	zipfS     = 1.2
	probeJobs = 4 // jobs re-run through the library / a single daemon
	// openLoopDrain is how long open-loop jobs may run past the last firing
	// before the run fails; a healthy job takes milliseconds.
	openLoopDrain = 60 * time.Second
)

// jobSpec is the fixture configuration as a service job spec.
func jobSpec(seed int64) serve.JobSpec {
	start := startNode
	return serve.JobSpec{Count: jobCount, Seed: seed, Workers: 1, Start: &start,
		WalkLength: walkLen, CrawlHops: crawlHops, BackwardReps: backReps, VarianceBudget: varBudget}
}

// call sends one request to h in-process, with no socket in between.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// lineWriter is an in-process http.ResponseWriter that hands each complete
// NDJSON line to onLine as the handler writes it.
type lineWriter struct {
	hdr    http.Header
	code   int
	buf    []byte
	onLine func([]byte)
}

func (w *lineWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *lineWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.onLine(w.buf[:i])
		w.buf = w.buf[i+1:]
	}
}

func (w *lineWriter) Flush() {}

// streamLine is one NDJSON line: a sample row or the terminal status.
type streamLine struct {
	I      *int   `json:"i"`
	Node   int    `json:"node"`
	Steps  int    `json:"steps"`
	Done   bool   `json:"done"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// clientJob is one service job as a client sees it: submit, then follow the
// NDJSON stream to its terminal line.
type clientJob struct {
	seed int64
	hot  bool // fleet-zipf: a repeat of a hot spec

	due, sent, posted, first, end time.Time
	id, digest                    string
	shed                          bool
	err                           error
	idx, nodes, steps             []int
	state                         string
	cached                        bool
}

func (cj *clientJob) do(h http.Handler) {
	body, err := json.Marshal(jobSpec(cj.seed))
	if err != nil {
		cj.err = err
		return
	}
	cj.sent = time.Now()
	code, resp := call(h, http.MethodPost, "/v1/jobs", body)
	cj.posted = time.Now()
	switch {
	case code == http.StatusServiceUnavailable:
		cj.shed, cj.err = true, fmt.Errorf("shed: %s", bytes.TrimSpace(resp))
		return
	case code != http.StatusAccepted:
		cj.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(resp))
		return
	}
	var st struct{ ID, Digest string }
	if err := json.Unmarshal(resp, &st); err != nil || st.ID == "" {
		cj.err = fmt.Errorf("submit: unreadable status %q", resp)
		return
	}
	cj.id, cj.digest = st.ID, st.Digest
	w := &lineWriter{onLine: func(b []byte) {
		var ln streamLine
		if err := json.Unmarshal(b, &ln); err != nil {
			cj.err = fmt.Errorf("stream: bad line %q", b)
			return
		}
		switch {
		case ln.Done:
			cj.end, cj.state, cj.cached = time.Now(), ln.State, ln.Cached
			if ln.Error != "" {
				cj.err = fmt.Errorf("job %s: %s", ln.State, ln.Error)
			}
		case ln.I != nil:
			if len(cj.nodes) == 0 {
				cj.first = time.Now()
			}
			cj.idx = append(cj.idx, *ln.I)
			cj.nodes = append(cj.nodes, ln.Node)
			cj.steps = append(cj.steps, ln.Steps)
		}
	}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil))
	if cj.err == nil && cj.end.IsZero() {
		cj.err = fmt.Errorf("stream of %s ended without a terminal line", st.ID)
	}
}

// verify checks a completed job's output: jobCount rows, indices 0..n-1 in
// order, every node in [0, nodes), and a terminal line saying done.
func (cj *clientJob) verify(nodes int) error {
	if cj.state != string(serve.JobDone) {
		return fmt.Errorf("terminal state %q", cj.state)
	}
	if len(cj.nodes) != jobCount {
		return fmt.Errorf("%d rows, want %d", len(cj.nodes), jobCount)
	}
	for k, i := range cj.idx {
		if i != k {
			return fmt.Errorf("row %d has index %d", k, i)
		}
		if v := cj.nodes[k]; v < 0 || v >= nodes {
			return fmt.Errorf("row %d node %d outside [0, %d)", k, v, nodes)
		}
	}
	return nil
}

func (cj *clientJob) hash() uint64 {
	var h rowHasher
	return h.job(cj.seed, cj.nodes, cj.steps)
}

// runClosed runs jobs with conc concurrent callers and returns the first
// failure. Used for set-up traffic and verification, never measured.
func runClosed(h http.Handler, jobs []*clientJob, conc, nodes int) error {
	var wg sync.WaitGroup
	next := make(chan *clientJob)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cj := range next {
				cj.do(h)
			}
		}()
	}
	for _, cj := range jobs {
		next <- cj
	}
	close(next)
	wg.Wait()
	for _, cj := range jobs {
		if cj.err == nil {
			cj.err = cj.verify(nodes)
		}
		if cj.err != nil {
			return fmt.Errorf("seed %d: %w", cj.seed, cj.err)
		}
	}
	return nil
}

// scheduleLen is how many jobs an open loop at rate jobs/s offers in d, and
// at least the jobs the output digest covers.
func scheduleLen(rate float64, d time.Duration) int {
	n := int(math.Ceil(rate * d.Seconds()))
	if n < digestJobs {
		n = digestJobs
	}
	return n
}

// openLoop fires job i (0 ≤ i < n) at start + i/rate, each on its own
// goroutine, so a slow job never holds back later ones, and records each
// firing's lateness in ms: how long after its due time the generator fired
// it. When hp has a probe due, the generator lets the jobs in flight finish,
// pauses for it, and shifts the rest of the schedule by the pause. It returns
// once every job has returned, or with an error if some are still running
// drain after the last firing.
func openLoop(n int, rate float64, drain time.Duration, hp *hostProbe, fire func(i int, due time.Time)) (time.Time, []float64, error) {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	late := make([]float64, n)
	start := time.Now()
	shift := time.Duration(0)
	for i := 0; i < n; i++ {
		if hp.due() {
			shift += hp.pause(func() { waitIdle(&inflight, probeDrain) })
		}
		due := start.Add(shift + time.Duration(float64(i)/rate*float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		wg.Add(1)
		inflight.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			fire(i, due)
		}(i, due)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return start, late, nil
	case <-time.After(drain):
		return start, late, fmt.Errorf("open loop: jobs still running %s after the last was fired", drain)
	}
}

// probeDrain bounds how long the open loop waits for its jobs in flight to
// finish before a probe pause; a job still running then overlaps the pause.
const probeDrain = 200 * time.Millisecond

func waitIdle(inflight *atomic.Int64, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// addJobs folds a finished open-loop job list into the phase. A job's
// latency counts from its due time — the generator's wait before sending it
// plus the program's time after — so a stall also delays the jobs behind it.
func (ph *phase) addJobs(jobs []clientJob, nodes int) (sheds int) {
	for i := range jobs {
		cj := &jobs[i]
		ph.attempted++
		if cj.err == nil {
			if err := cj.verify(nodes); err != nil {
				ph.mismatch("job %d (seed %d): %v", i, cj.seed, err)
				continue
			}
		}
		if cj.err != nil {
			if cj.shed {
				sheds++
			}
			ph.fail("job %d (seed %d): %v", i, cj.seed, cj.err)
			continue
		}
		ph.samples += int64(len(cj.nodes))
		if !cj.cached { // a result-cache hit replays rows and walks no steps
			for _, st := range cj.steps {
				ph.steps += int64(st)
			}
		}
		ph.jobMS = append(ph.jobMS, ms(cj.end.Sub(cj.sent)))
		ph.firstMS = append(ph.firstMS, ms(cj.first.Sub(cj.sent)))
		ph.waitMS = append(ph.waitMS, ms(cj.sent.Sub(cj.due)))
		ph.keepHash(i, cj.hash())
	}
	return sheds
}

// acceptanceLayers derives the sampler's acceptance rate and forward/backward
// step split from the jobs that ran a sampler (not result-cache hits):
// attempts = samples / acceptance rate, and each attempt walks walkLen
// forward steps.
func (ph *phase) acceptanceLayers(statuses map[string]serve.JobStatus, jobs []clientJob, useDigest bool) {
	var attempts float64
	var counted, steps int64
	for i := range jobs {
		cj := &jobs[i]
		if cj.err != nil || cj.cached {
			continue
		}
		key := cj.id
		if useDigest {
			key = cj.digest
		}
		st, ok := statuses[key]
		if !ok || st.Result == nil || st.Result.AcceptanceRate <= 0 {
			continue
		}
		attempts += float64(len(cj.nodes)) / st.Result.AcceptanceRate
		counted += int64(len(cj.nodes))
		for _, s := range cj.steps {
			steps += int64(s)
		}
	}
	if counted == 0 {
		return
	}
	fwdPerSample := attempts / float64(counted) * walkLen
	ph.layers["core.sampler.acceptance_rate"] = float64(counted) / attempts
	ph.layers["core.sampler.fwd_steps_per_sample"] = fwdPerSample
	ph.layers["core.sampler.back_steps_per_sample"] = float64(steps)/float64(counted) - fwdPerSample
}

// daemon is a single sampling service: one serve.Manager behind its HTTP
// handler, driven in-process.
type daemon struct {
	mgr *serve.Manager
	h   http.Handler
}

func newDaemon(net *osn.Network, runners, budget int) *daemon {
	mgr := serve.NewManager(serve.NewEngine(net), serve.Config{Runners: runners, WorkerBudget: budget})
	return &daemon{mgr: mgr, h: serve.Handler(mgr)}
}

func setupServe(p params, tr *tracer) (*fixture, error) {
	fx, err := newFixture(p, tr, false)
	if err != nil {
		return nil, err
	}
	d := newDaemon(fx.net, 2, 4)
	fx.svc = d
	fx.closers = append(fx.closers, d.mgr.Close)
	warm := make([]*clientJob, p.warmup)
	for k := range warm {
		warm[k] = &clientJob{seed: jobSeed(p.seed, streamWarm, k)}
	}
	if err := runClosed(d.h, warm, 4, p.nodes); err != nil {
		fx.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fx.setupSamples = int64(len(warm) * jobCount)
	return fx, nil
}

func measureServe(fx *fixture, p params, tr *tracer, hp *hostProbe) (*phase, error) {
	d := fx.svc
	eng := d.mgr.Engine()
	n := scheduleLen(serveRate, p.window())
	jobs := make([]clientJob, n)
	for i := range jobs {
		jobs[i].seed = jobSeed(p.seed, streamJobs, i)
	}
	cs0, rc0 := eng.CacheStats(), d.mgr.ResultCacheStats()
	ph := newPhase()
	ph.use0 = readUsage()
	start, late, err := openLoop(n, serveRate, openLoopDrain, hp, func(i int, due time.Time) {
		jobs[i].due = due
		jobs[i].do(d.h)
	})
	if err != nil {
		return nil, err
	}
	ph.use1 = readUsage()
	ph.elapsed = ph.use1.at.Sub(start)
	ph.lateMS = late
	cs1, rc1 := eng.CacheStats(), d.mgr.ResultCacheStats()
	sheds := ph.addJobs(jobs, p.nodes)
	// The daemon's neighbor cache outlives jobs, so after warm-up a job
	// charges almost nothing; the charge is reported amortized over the
	// daemon's life instead. The charged node set is the union of the node
	// sets its jobs touch, which each job's spec fixes, so both terms are
	// fixed by the seed.
	ph.queries = cs1.Queries
	ph.chargedSamples = ph.samples + fx.setupSamples

	statuses := make(map[string]serve.JobStatus)
	for _, st := range d.mgr.List() {
		statuses[st.ID] = st
	}
	var queue, run, httpMS []float64
	var runTotal float64
	for i := range jobs {
		cj := &jobs[i]
		st, ok := statuses[cj.id]
		if cj.err != nil || !ok {
			continue
		}
		queue = append(queue, st.QueueMS)
		run = append(run, st.RunMS)
		runTotal += st.RunMS
		httpMS = append(httpMS, ms(cj.end.Sub(cj.sent))-st.QueueMS-st.RunMS)
		if tr != nil {
			sub := traceHTTP(tr, i, cj)
			sent, q := tr.at(cj.sent), msToNS(st.QueueMS)
			tr.add(sub, int64(i), "serve.queue", sent, sent+q)
			tr.add(sub, int64(i), "serve.run", sent+q, sent+q+msToNS(st.RunMS))
		}
	}
	smp := float64(ph.samples)
	ph.layers["serve.queue_ms_p50"] = percentile(queue, 50)
	ph.layers["serve.queue_ms_p90"] = percentile(queue, 90)
	ph.layers["serve.run_ms_p50"] = percentile(run, 50)
	ph.layers["serve.http_ms_p50"] = percentile(httpMS, 50)
	ph.layers["serve.shed_ratio"] = ratio(float64(sheds), float64(ph.attempted))
	ph.layers["serve.result_cache.hit_ratio"] = ratio(float64(rc1.Hits-rc0.Hits), float64(rc1.Hits-rc0.Hits+rc1.Misses-rc0.Misses))
	cacheLayers(ph, cs1.Queries-cs0.Queries, cs1.Queries-cs0.Queries, cs1.Calls-cs0.Calls)
	ph.acceptanceLayers(statuses, jobs, false)
	if tr != nil {
		ph.layers["core.sampler.self_ms_per_sample"] = ratio(runTotal-ms(time.Duration(tr.waitNS.Load())), smp)
	}
	probeLibrary(ph, fx, d.mgr.NormEnv(), jobs)
	return ph, nil
}

// cacheLayers records the shared neighbor cache's meters over the window:
// the unique-node charges, the fetches past the clients' L1 per sample, and
// the hit ratio the service itself exports (1 - charged / fetches).
func cacheLayers(ph *phase, unique, charged, fetches int64) {
	ph.layers["osn.shared.unique_charges"] = float64(unique)
	ph.layers["osn.client.lookups_per_sample"] = ratio(float64(fetches), float64(ph.samples))
	if fetches > 0 {
		ph.layers["osn.shared.hit_ratio"] = 1 - float64(charged)/float64(fetches)
	}
}

// traceHTTP records a service job's serve.submit and serve.stream spans
// around its two HTTP calls and returns the submit span's id. The queue and
// run spans inside it are rebuilt by the caller from status durations, placed
// from the submit time (the service reports durations, not instants).
func traceHTTP(tr *tracer, i int, cj *clientJob) int64 {
	job := int64(i)
	sub := tr.add(0, job, "serve.submit", tr.at(cj.sent), tr.at(cj.posted))
	tr.add(sub, job, "serve.stream", tr.at(cj.posted), tr.at(cj.end))
	return sub
}

func msToNS(v float64) int64 { return int64(v * float64(time.Millisecond)) }

// probeLibrary re-runs the first probeJobs service jobs through the library
// — the spec normalized as the daemon does, then core.NewSampler — and
// checks that the daemon served the same rows.
func probeLibrary(ph *phase, fx *fixture, env serve.NormEnv, jobs []clientJob) {
	var hasher rowHasher
	for i := 0; i < probeJobs && i < len(jobs); i++ {
		cj := &jobs[i]
		if cj.err != nil {
			continue
		}
		spec, err := serve.NormalizeSpec(jobSpec(cj.seed), env)
		if err != nil {
			ph.mismatch("probe %d: normalize: %v", i, err)
			continue
		}
		d, err := walk.ByName(spec.Design)
		if err != nil {
			ph.mismatch("probe %d: %v", i, err)
			continue
		}
		cfg := libConfig(fx.crawl)
		cfg.Design, cfg.Start, cfg.WalkLength = d, *spec.Start, spec.WalkLength
		cfg.UseWeighted, cfg.BackwardReps, cfg.VarianceBudget = !spec.NoWeighted, spec.BackwardReps, spec.VarianceBudget
		rng := fastrand.New(spec.Seed)
		s, err := core.NewSampler(osn.NewClient(fx.net, osn.CostUniqueNodes, rng), cfg, rng)
		if err != nil {
			ph.mismatch("probe %d: %v", i, err)
			continue
		}
		res, err := s.SampleNParallel(spec.Count, spec.Workers)
		if err != nil {
			ph.mismatch("probe %d: %v", i, err)
			continue
		}
		if hasher.job(cj.seed, res.Nodes, res.Steps) != cj.hash() {
			ph.mismatch("probe %d (seed %d): daemon rows differ from the library's", i, cj.seed)
		}
	}
}

// fleet is a coordinator and its workers on loopback test servers. Each
// worker is a full serve stack over its own network on the shared graph.
type fleet struct {
	co      *cluster.Coordinator
	h       http.Handler // the coordinator's HTTP surface, driven in-process
	workers []*cluster.Worker
	mgrs    []*serve.Manager
	hot     []int64          // hot spec seeds
	hotHash map[int64]uint64 // their rows, from set-up
}

const fleetWorkers = 2

func setupFleet(p params, tr *tracer) (*fixture, error) {
	fx, err := newFixture(p, tr, false)
	if err != nil {
		return nil, err
	}
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	fl := &fleet{co: co, h: co.Handler(), hotHash: make(map[int64]uint64)}
	fx.fl = fl
	cs := httptest.NewServer(fl.h)
	fx.closers = append(fx.closers, cs.Close)
	var servers []*httptest.Server
	for k := 0; k < fleetWorkers; k++ {
		mgr := serve.NewManager(serve.NewEngine(osn.NewNetworkOn(tr.wrap(fx.be, nil))),
			serve.Config{Runners: 1})
		ws := httptest.NewUnstartedServer(nil)
		w, err := cluster.NewWorker(mgr, cluster.WorkerConfig{
			Coordinator: cs.URL, Advertise: "http://" + ws.Listener.Addr().String()})
		if err != nil {
			ws.Close()
			mgr.Close()
			fx.close()
			return nil, err
		}
		ws.Config.Handler = w.Handler()
		ws.Start()
		servers = append(servers, ws)
		fl.workers = append(fl.workers, w)
		fl.mgrs = append(fl.mgrs, mgr)
	}
	// Shut down front to back: coordinator relays, heartbeats, runners, then
	// the listeners.
	fx.closers = append(fx.closers, func() {
		fl.co.Close()
		for _, w := range fl.workers {
			w.Close()
		}
		for _, m := range fl.mgrs {
			m.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	})
	for _, w := range fl.workers {
		if err := w.Start(); err != nil {
			fx.close()
			return nil, err
		}
	}
	if err := waitReady(fl.h, 15*time.Second); err != nil {
		fx.close()
		return nil, err
	}
	hot := make([]*clientJob, p.hot)
	for k := range hot {
		hot[k] = &clientJob{seed: jobSeed(p.seed, streamHot, k)}
		fl.hot = append(fl.hot, hot[k].seed)
	}
	if err := runClosed(fl.h, hot, fleetWorkers, p.nodes); err != nil {
		fx.close()
		return nil, fmt.Errorf("hot specs: %w", err)
	}
	for _, cj := range hot {
		fl.hotHash[cj.seed] = cj.hash()
	}
	fx.setupSamples = int64(len(hot) * jobCount)
	return fx, nil
}

// waitReady polls the coordinator's /readyz until every worker has joined
// and installed its cache partition.
func waitReady(h http.Handler, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, body := call(h, http.MethodGet, "/readyz", nil)
		if code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after %s: %s", limit, bytes.TrimSpace(body))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fleetMeters sums the workers' engine and result-cache meters. owned is the
// exact fleet-wide unique-node charge (Σ OwnedUnique); charged and calls are
// each worker's own meters, the pair its cache hit ratio is exported from.
type fleetMeters struct {
	owned, charged, calls, fallbacks int64
	hits, misses                     int64
}

func (fl *fleet) meters() fleetMeters {
	var m fleetMeters
	for _, mgr := range fl.mgrs {
		cs := mgr.Engine().CacheStats()
		m.owned += cs.OwnedUnique
		m.charged += cs.Queries
		m.calls += cs.Calls
		m.fallbacks += cs.RemoteFallbacks
		rc := mgr.ResultCacheStats()
		m.hits += rc.Hits
		m.misses += rc.Misses
	}
	return m
}

func measureFleet(fx *fixture, p params, tr *tracer, hp *hostProbe) (*phase, error) {
	fl := fx.fl
	n := scheduleLen(fleetRate, p.window())
	jobs := make([]clientJob, n)
	// Exactly hotShare of the jobs repeat a hot spec, at positions and with
	// zipf-drawn ranks fixed by the seed; the rest are fresh.
	mix := rand.New(rand.NewSource(jobSeed(p.seed, streamMix, 0)))
	zipf := rand.NewZipf(mix, zipfS, 1, uint64(len(fl.hot)-1))
	fresh := make([]bool, n)
	for _, i := range mix.Perm(n)[:int(math.Round(float64(n)*(1-hotShare)))] {
		fresh[i] = true
	}
	for i := range jobs {
		if fresh[i] {
			jobs[i].seed = jobSeed(p.seed, streamJobs, i)
		} else {
			jobs[i].seed, jobs[i].hot = fl.hot[zipf.Uint64()], true
		}
	}
	m0, rc0, hand0 := fl.meters(), fl.co.ResultCacheStats(), fl.co.Summary(false).Handoffs
	ph := newPhase()
	ph.use0 = readUsage()
	start, late, err := openLoop(n, fleetRate, openLoopDrain, hp, func(i int, due time.Time) {
		jobs[i].due = due
		jobs[i].do(fl.h)
	})
	if err != nil {
		return nil, err
	}
	ph.use1 = readUsage()
	ph.elapsed = ph.use1.at.Sub(start)
	ph.lateMS = late
	m1, rc1, hand1 := fl.meters(), fl.co.ResultCacheStats(), fl.co.Summary(false).Handoffs
	sheds := ph.addJobs(jobs, p.nodes)
	ph.queries = m1.owned // amortized over the fleet's life, as in measureServe
	ph.chargedSamples = ph.samples + fx.setupSamples
	for i := range jobs {
		if cj := &jobs[i]; cj.err == nil && cj.hot && cj.hash() != fl.hotHash[cj.seed] {
			ph.mismatch("job %d: hot spec %d rows differ from its first run", i, cj.seed)
		}
	}

	// Worker-side statuses, keyed by digest: each fresh seed is unique, so
	// its digest names exactly one worker job.
	worker := make(map[string]serve.JobStatus)
	for _, mgr := range fl.mgrs {
		for _, st := range mgr.List() {
			worker[st.Digest] = st
		}
	}
	coord := make(map[string]cluster.JobStatus)
	for _, st := range fl.co.List() {
		coord[st.ID] = st
	}
	var queue, run, httpMS, dispatch []float64
	var runTotal float64
	for i := range jobs {
		cj := &jobs[i]
		if cj.err != nil {
			continue
		}
		e2e := ms(cj.end.Sub(cj.sent))
		if cj.cached {
			httpMS = append(httpMS, e2e)
			if tr != nil {
				traceHTTP(tr, i, cj)
			}
			continue
		}
		st, ok := worker[cj.digest]
		if !ok {
			continue
		}
		queue = append(queue, st.QueueMS)
		run = append(run, st.RunMS)
		runTotal += st.RunMS
		httpMS = append(httpMS, e2e-st.QueueMS-st.RunMS)
		dispatch = append(dispatch, e2e-st.QueueMS-st.RunMS)
		if tr != nil {
			traceFleetJob(tr, i, cj, coord[cj.id], st)
		}
	}
	smp := float64(ph.samples)
	ph.layers["serve.queue_ms_p50"] = percentile(queue, 50)
	ph.layers["serve.queue_ms_p90"] = percentile(queue, 90)
	ph.layers["serve.run_ms_p50"] = percentile(run, 50)
	ph.layers["serve.http_ms_p50"] = percentile(httpMS, 50)
	ph.layers["cluster.dispatch_ms_p50"] = percentile(dispatch, 50)
	ph.layers["serve.shed_ratio"] = ratio(float64(sheds), float64(ph.attempted))
	coHits, coMiss := rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
	ph.layers["cluster.coord.cache_hit_ratio"] = ratio(float64(coHits), float64(coHits+coMiss))
	hits := coHits + m1.hits - m0.hits
	ph.layers["serve.result_cache.hit_ratio"] = ratio(float64(hits), float64(coHits+coMiss+m1.hits-m0.hits+m1.misses-m0.misses))
	ph.layers["cluster.handoffs"] = float64(hand1 - hand0)
	ph.layers["cluster.remote_fallbacks"] = float64(m1.fallbacks - m0.fallbacks)
	cacheLayers(ph, m1.owned-m0.owned, m1.charged-m0.charged, m1.calls-m0.calls)
	ph.acceptanceLayers(worker, jobs, true)
	if tr != nil {
		ph.layers["core.sampler.self_ms_per_sample"] = ratio(runTotal-ms(time.Duration(tr.waitNS.Load())), smp)
	}
	probeSingleDaemon(ph, fx, jobs)
	return ph, nil
}

// traceFleetJob records a relayed job: serve.submit and serve.stream at the
// coordinator, cluster.relay rebuilt from the coordinator's status, and the
// worker's serve.queue and serve.run inside the relay.
func traceFleetJob(tr *tracer, i int, cj *clientJob, co cluster.JobStatus, w serve.JobStatus) {
	job := int64(i)
	sub := traceHTTP(tr, i, cj)
	rs := tr.at(cj.sent) + msToNS(co.QueueMS)
	relay := tr.add(sub, job, "cluster.relay", rs, rs+msToNS(co.RunMS))
	q := msToNS(w.QueueMS)
	tr.add(relay, job, "serve.queue", rs, rs+q)
	tr.add(relay, job, "serve.run", rs+q, rs+q+msToNS(w.RunMS))
}

// probeSingleDaemon runs a few of the fleet's specs — hot and fresh — on one
// plain daemon over the same graph and checks the fleet served the same rows.
func probeSingleDaemon(ph *phase, fx *fixture, jobs []clientJob) {
	var picks []*clientJob
	var hot, fresh int
	for i := range jobs {
		cj := &jobs[i]
		if cj.err != nil {
			continue
		}
		if cj.hot && hot < probeJobs/2 {
			hot++
			picks = append(picks, cj)
		} else if !cj.hot && fresh < probeJobs/2 {
			fresh++
			picks = append(picks, cj)
		}
	}
	d := newDaemon(osn.NewNetwork(fx.g), 1, 4)
	defer d.mgr.Close()
	again := make([]*clientJob, len(picks))
	for k, cj := range picks {
		again[k] = &clientJob{seed: cj.seed}
	}
	if err := runClosed(d.h, again, 1, fx.net.NumNodes()); err != nil {
		ph.mismatch("single-daemon probe: %v", err)
		return
	}
	for k, cj := range picks {
		if again[k].hash() != cj.hash() {
			ph.mismatch("seed %d: fleet rows differ from a single daemon's", cj.seed)
		}
	}
}
