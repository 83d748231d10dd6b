package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
)

// cacheManager builds a manager with a 1-runner config on the standard test
// network, mirroring the idiom of the determinism tests so cache behavior is
// observed against the exact same workload shape.
func cacheManager(t *testing.T, cfg Config) (*Engine, *Manager) {
	t.Helper()
	eng := NewEngine(testNetwork(t))
	if cfg.Runners == 0 {
		cfg.Runners = 1
	}
	if cfg.WorkerBudget == 0 {
		cfg.WorkerBudget = 4
	}
	m := NewManager(eng, cfg)
	t.Cleanup(m.Close)
	return eng, m
}

// Equivalent submissions — defaults elided vs spelled out, design case
// aliases, workers over-asked and clamped, start elided vs explicitly the
// default — must normalize onto one canonical spec and share one digest.
func TestSpecDigestEquivalentVariants(t *testing.T) {
	_, m := cacheManager(t, Config{})
	env := m.NormEnv()
	if env.GraphID == "" {
		t.Fatal("engine produced an empty graph id")
	}

	start := env.DefaultStart
	variants := map[string]JobSpec{
		"elided defaults": {},
		"explicit defaults": {Type: TypeSample, Design: "srw", Count: 10,
			Seed: 1, Workers: 1, Start: &start,
			WalkLength: env.DefaultWalkLen, CrawlHops: 2, Attr: "degree"},
		"design case alias":      {Design: "SRW"},
		"deadline elided vs set": {DeadlineMS: 120000},
	}
	var want string
	for name, spec := range variants {
		norm, err := NormalizeSpec(spec, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := SpecDigest(env, norm)
		if want == "" {
			want = d
			continue
		}
		if d != want {
			t.Fatalf("%s: digest %s, want %s (spec %+v, norm %+v)", name, d, want, spec, norm)
		}
	}

	// Workers above the per-job clamp digest identically to asking for the
	// clamp exactly.
	clamped, err := NormalizeSpec(JobSpec{Workers: 999}, env)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NormalizeSpec(JobSpec{Workers: env.MaxWorkersPerJob}, env)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Workers != env.MaxWorkersPerJob {
		t.Fatalf("workers not clamped: %d", clamped.Workers)
	}
	if a, b := SpecDigest(env, clamped), SpecDigest(env, exact); a != b {
		t.Fatalf("clamped digest %s != exact digest %s", a, b)
	}
}

// Specs differing in any result-determining field must never share a digest,
// and the same spec on a different graph must not either.
func TestSpecDigestNoCollisions(t *testing.T) {
	_, m := cacheManager(t, Config{})
	env := m.NormEnv()

	otherStart := (env.DefaultStart + 1) % env.NumNodes
	est := JobSpec{Type: TypeEstimateMean}
	specs := []JobSpec{
		{},
		{Count: 11},
		{Seed: 2},
		{Workers: 2},
		{Start: &otherStart},
		{WalkLength: env.DefaultWalkLen + 1},
		{CrawlHops: 3},
		{NoCrawl: true},
		{NoWeighted: true},
		{Design: "mhrw"},
		est,
		{Type: TypeEstimateMean, Attr: "id"},
		{Type: TypeWalkPath},
	}
	seen := map[string]JobSpec{}
	for _, spec := range specs {
		norm, err := NormalizeSpec(spec, env)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		d := SpecDigest(env, norm)
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision %s: %+v and %+v", d, prev, spec)
		}
		seen[d] = spec
	}

	// Same spec, different graph fingerprint: never interchangeable.
	envB := env
	envB.GraphID = env.GraphID + "x"
	norm, err := NormalizeSpec(JobSpec{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if SpecDigest(env, norm) == SpecDigest(envB, norm) {
		t.Fatal("digest ignores the graph id")
	}
}

// A repeat submission must be served from the result cache: terminal on
// admission, byte-identical rows, a result marked Cached with zero query
// charges, and — the point of the layer — zero new walk steps anywhere in
// the engine: the fleet charge meter, the neighbor-cache call counter, and
// the samples-produced meter all stay frozen.
func TestRepeatSubmissionServedFromCache(t *testing.T) {
	eng, m := cacheManager(t, Config{})
	spec := JobSpec{Type: TypeSample, Count: 25, Seed: 7, Workers: 2}

	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stA := waitJob(t, a)
	if stA.State != JobDone {
		t.Fatalf("live job: %+v", stA)
	}
	if stA.Digest == "" {
		t.Fatal("live job has no digest")
	}
	if stA.Result.Cached {
		t.Fatal("first run claims to be cached")
	}
	rowsA, _ := a.waitSamples(context.Background(), 0)

	statsBefore := eng.CacheStats()
	samplesBefore := m.met.samples.Load()

	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stB := b.Status()
	if stB.State != JobDone {
		t.Fatalf("cached admission not immediately terminal: %+v", stB)
	}
	if stB.Digest != stA.Digest {
		t.Fatalf("digest changed across submissions: %s vs %s", stB.Digest, stA.Digest)
	}
	if stB.Result == nil || !stB.Result.Cached {
		t.Fatalf("repeat not served from cache: %+v", stB.Result)
	}
	if stB.Result.Queries != 0 {
		t.Fatalf("cached hit charged %d queries, want 0", stB.Result.Queries)
	}
	rowsB, terminal := b.waitSamples(context.Background(), 0)
	if !terminal {
		t.Fatal("cached job not terminal for streamers")
	}
	sameRows(t, rowsB, rowsA, "cached replayed stream")
	if len(stB.Result.Nodes) != len(stA.Result.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(stB.Result.Nodes), len(stA.Result.Nodes))
	}
	for i := range stA.Result.Nodes {
		if stB.Result.Nodes[i] != stA.Result.Nodes[i] {
			t.Fatalf("node %d differs: %d vs %d", i, stB.Result.Nodes[i], stA.Result.Nodes[i])
		}
	}

	statsAfter := eng.CacheStats()
	if statsAfter.Queries != statsBefore.Queries {
		t.Fatalf("fleet meter moved on a cached hit: %d -> %d", statsBefore.Queries, statsAfter.Queries)
	}
	if statsAfter.Calls != statsBefore.Calls {
		t.Fatalf("neighbor-cache calls on a cached hit: %d -> %d", statsBefore.Calls, statsAfter.Calls)
	}
	if got := m.met.samples.Load(); got != samplesBefore {
		t.Fatalf("samples meter moved on a cached hit: %d -> %d", samplesBefore, got)
	}

	rcs := m.ResultCacheStats()
	if !rcs.Enabled || rcs.Hits != 1 || rcs.Misses != 1 {
		t.Fatalf("cache stats: %+v, want 1 hit / 1 miss", rcs)
	}
	if rcs.QueriesSaved != stA.Result.Queries {
		t.Fatalf("queries_saved = %d, want the original run's charge %d", rcs.QueriesSaved, stA.Result.Queries)
	}
}

// Equivalent-but-differently-spelled submissions hit the same cache entry.
func TestRepeatSubmissionVariantSpelling(t *testing.T) {
	_, m := cacheManager(t, Config{})
	a, err := m.Submit(JobSpec{Design: "srw", Count: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a)

	b, err := m.Submit(JobSpec{Design: "SRW", Count: 15, Seed: 3, Workers: 1, DeadlineMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Status(); st.Result == nil || !st.Result.Cached {
		t.Fatalf("variant spelling missed the cache: %+v", st)
	}
}

// CacheBytes < 0 disables the layer: repeats run live.
func TestResultCacheDisabled(t *testing.T) {
	_, m := cacheManager(t, Config{CacheBytes: -1})
	if rcs := m.ResultCacheStats(); rcs.Enabled {
		t.Fatalf("cache reports enabled: %+v", rcs)
	}
	spec := JobSpec{Count: 5, Seed: 9}
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a)
	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, b); st.Result.Cached {
		t.Fatal("disabled cache still served a hit")
	}
}

// A cached repeat must be admitted even while the bounded queue is full —
// hits occupy no queue slot, no runner, and no worker budget, so load
// shedding never applies to them.
func TestCachedHitShedImmune(t *testing.T) {
	_, m := cacheManager(t, Config{QueueDepth: 1, Runners: 1, WorkerBudget: 1})

	warm := JobSpec{Count: 8, Seed: 11}
	a, err := m.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, a); st.State != JobDone {
		t.Fatalf("warm job: %+v", st)
	}

	// Occupy the only runner with a long job, then fill the queue slot.
	long1, err := m.Submit(JobSpec{Count: 5_000_000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for long1.Status().State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}
	long2, err := m.Submit(JobSpec{Count: 5_000_000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(long2.ID())
	defer m.Cancel(long1.ID())

	if _, err := m.Submit(JobSpec{Count: 9, Seed: 23}); err != ErrQueueFull {
		t.Fatalf("fresh spec under overload: err = %v, want ErrQueueFull", err)
	}
	hit, err := m.Submit(warm)
	if err != nil {
		t.Fatalf("cached repeat shed under overload: %v", err)
	}
	if st := hit.Status(); st.State != JobDone || st.Result == nil || !st.Result.Cached {
		t.Fatalf("overload repeat not a cache hit: %+v", st)
	}
}

// The LRU byte budget evicts least-recently-used entries, never the one just
// promoted by a Get.
func TestResultCacheLRUEviction(t *testing.T) {
	row := func(n int) []Sample {
		rows := make([]Sample, n)
		for i := range rows {
			rows[i] = Sample{Index: i, Node: i, Steps: 1}
		}
		return rows
	}
	res := &JobResult{Samples: 10, Queries: 5}
	// Each 10-row entry costs 256 + 400 = 656 bytes; budget fits two.
	rc := NewResultCache(1400)
	rc.Put("a", row(10), res)
	rc.Put("b", row(10), res)
	if _, _, ok := rc.Get("a"); !ok { // promote a: b is now LRU
		t.Fatal("entry a missing before eviction")
	}
	rc.Put("c", row(10), res)
	if _, _, ok := rc.Get("b"); ok {
		t.Fatal("LRU entry b survived over budget")
	}
	if _, _, ok := rc.Get("a"); !ok {
		t.Fatal("promoted entry a was evicted")
	}
	if _, _, ok := rc.Get("c"); !ok {
		t.Fatal("newest entry c was evicted")
	}
	st := rc.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if st.Bytes > 1400 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}

	// Partial results and entries larger than the whole budget are refused.
	rc.Put("partial", row(1), &JobResult{Partial: true})
	rc.Put("huge", row(100), res)
	if _, _, ok := rc.Get("partial"); ok {
		t.Fatal("partial result was cached")
	}
	if _, _, ok := rc.Get("huge"); ok {
		t.Fatal("oversize entry was cached")
	}
}

// Cached results survive restart: terminal records rehydrated from the
// journal re-seed the result cache, so a repeat submitted to the restarted
// daemon is a hit with zero charges on the brand-new engine.
func TestResultCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := NewEngine(testNetwork(t))
	m1 := NewManager(eng1, Config{Runners: 1, WorkerBudget: 4, Journal: jl})
	spec := JobSpec{Count: 12, Seed: 17, Workers: 2}
	a, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stA := waitJob(t, a)
	if stA.State != JobDone {
		t.Fatalf("pre-restart job: %+v", stA)
	}
	rowsA, _ := a.waitSamples(context.Background(), 0)
	m1.Close()

	jl2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(testNetwork(t)) // fresh engine: empty neighbor cache, zeroed meters
	m2 := NewManager(eng2, Config{Runners: 1, WorkerBudget: 4, Journal: jl2})
	defer m2.Close()

	before := eng2.CacheStats()
	b, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Status()
	if st.State != JobDone || st.Result == nil || !st.Result.Cached {
		t.Fatalf("post-restart repeat not a cache hit: %+v", st)
	}
	if st.Digest != stA.Digest {
		t.Fatalf("digest drifted across restart: %s vs %s", st.Digest, stA.Digest)
	}
	rowsB, _ := b.waitSamples(context.Background(), 0)
	sameRows(t, rowsB, rowsA, "post-restart cached stream")
	after := eng2.CacheStats()
	if after.Queries != before.Queries || after.Calls != before.Calls {
		t.Fatalf("restarted engine paid for a cached hit: %+v -> %+v", before, after)
	}
	if rcs := m2.ResultCacheStats(); rcs.Hits != 1 {
		t.Fatalf("post-restart cache stats: %+v", rcs)
	}
}

// The cached-hit journal record is itself replayable: a hit admitted on one
// incarnation rehydrates as a retained done job on the next.
func TestCachedHitRecordRehydrates(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4, Journal: jl})
	spec := JobSpec{Count: 6, Seed: 31}
	a, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a)
	hit, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hitID := hit.ID()
	m1.Close()

	jl2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(NewEngine(testNetwork(t)), Config{Runners: 1, WorkerBudget: 4, Journal: jl2})
	defer m2.Close()
	j, ok := m2.Get(hitID)
	if !ok {
		t.Fatalf("cached-hit job %s not rehydrated", hitID)
	}
	st := j.Status()
	if st.State != JobDone || st.Result == nil || !st.Result.Cached {
		t.Fatalf("rehydrated cached hit: %+v", st)
	}
	if st.Digest == "" {
		t.Fatal("rehydrated cached hit lost its digest")
	}
}

// Digest must also be stable under concurrent repeat submissions: every
// concurrent repeat after the first completed run is a hit and all of them
// replay identical rows.
func TestConcurrentRepeatsAllHit(t *testing.T) {
	_, m := cacheManager(t, Config{})
	spec := JobSpec{Count: 10, Seed: 41}
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a)
	rowsA, _ := a.waitSamples(context.Background(), 0)

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			j, err := m.Submit(spec)
			if err != nil {
				errs <- err
				return
			}
			st := j.Status()
			if st.State != JobDone || st.Result == nil || !st.Result.Cached {
				errs <- fmt.Errorf("concurrent repeat not a hit: %+v", st)
				return
			}
			rows, _ := j.waitSamples(context.Background(), 0)
			if len(rows) != len(rowsA) {
				errs <- fmt.Errorf("row count %d, want %d", len(rows), len(rowsA))
				return
			}
			for k := range rows {
				if rows[k] != rowsA[k] {
					errs <- fmt.Errorf("row %d differs", k)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if rcs := m.ResultCacheStats(); rcs.Hits != n {
		t.Fatalf("hits = %d, want %d", rcs.Hits, n)
	}
}

// TestHTTPZipfRepeatMix drives a daemon over HTTP with a zipfian repeat mix
// — few hot specs, many cold — over a 2 ms simulated backend, the traffic
// the result cache exists for:
//   - cold and sequential, every repeat of a spec already seen is a hit
//     and nothing else is: hits == jobs − distinct specs, exactly;
//   - warm and concurrent (the mix replayed four times), every job hits,
//     the charge meter does not move and the saved-queries meter does;
//   - a daemon with the cache disabled, its neighbor cache warmed by one
//     pass over the specs, serves the same mix with no hit, at no more
//     than a fifth of the cached daemon's samples/s.
func TestHTTPZipfRepeatMix(t *testing.T) {
	const (
		jobs     = 48
		distinct = 8
		count    = 120
		conc     = 8
		seed     = 500
	)
	g := gen.BarabasiAlbert(3000, 3, rand.New(rand.NewSource(7)))
	daemon := func(cacheBytes int64) string {
		net := osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 2*time.Millisecond, 0, 0))
		m := NewManager(NewEngine(net), Config{Runners: 1, WorkerBudget: 4, CacheBytes: cacheBytes})
		srv := httptest.NewServer(Handler(m))
		t.Cleanup(func() { srv.Close(); m.Close() })
		return srv.URL
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.3, 1, distinct-1)
	mix := make([]int64, jobs)
	seen := make(map[int64]bool)
	for i := range mix {
		mix[i] = seed + int64(z.Uint64())
		seen[mix[i]] = true
	}

	// run submits every seed's job from conc client loops and follows each
	// stream to its terminal line; it returns the result-cache hits and the
	// samples streamed per second of wall time.
	run := func(base string, seeds []int64, conc int) (hits int, samplesPerSec float64) {
		t.Helper()
		var (
			mu      sync.Mutex
			samples int
			errs    []error
			wg      sync.WaitGroup
			next    atomic.Int64
		)
		start := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
					n, cached, err := submitAndStream(base, JobSpec{Count: count, Seed: seeds[i], Workers: 2})
					mu.Lock()
					samples += n
					if cached {
						hits++
					}
					if err != nil {
						errs = append(errs, err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		return hits, float64(samples) / time.Since(start).Seconds()
	}

	cached := daemon(0)
	if hits, _ := run(cached, mix, 1); hits != jobs-len(seen) {
		t.Fatalf("cold sequential mix: %d hits, want jobs − distinct seen = %d", hits, jobs-len(seen))
	}
	// The warm pass replays the mix four times: a hit costs so little that
	// one pass is too short a window to time.
	var warm []int64
	for r := 0; r < 4; r++ {
		warm = append(warm, mix...)
	}
	before := scrapeMetrics(t, cached)
	hits, warmRate := run(cached, warm, conc)
	after := scrapeMetrics(t, cached)
	if hits != len(warm) {
		t.Fatalf("warm mix: %d hits of %d jobs, want every job", hits, len(warm))
	}
	const charged, saved = "walknotwait_queries_charged_total", "walknotwait_queries_saved_total"
	if b, a := metricValue(before, charged), metricValue(after, charged); a != b {
		t.Fatalf("cache hits charged queries: meter %v -> %v", b, a)
	}
	if b, a := metricValue(before, saved), metricValue(after, saved); a <= b {
		t.Fatalf("queries saved did not grow across the warm mix: %v -> %v", b, a)
	}

	live := daemon(-1)
	all := make([]int64, distinct)
	for i := range all {
		all[i] = seed + int64(i)
	}
	run(live, all, 4)
	hits, liveRate := run(live, mix, conc)
	if hits != 0 {
		t.Fatalf("cache-disabled daemon reported %d hits", hits)
	}
	ratio := warmRate / liveRate
	t.Logf("%d jobs over %d specs: warm cached %.0f samples/s, cache disabled %.0f samples/s (%.1f×)",
		jobs, len(seen), warmRate, liveRate, ratio)
	if ratio < 5 {
		t.Fatalf("result cache gives only %.2f× the cache-disabled samples/s, want >= 5×", ratio)
	}
}

// submitAndStream submits spec over HTTP and reads its NDJSON stream, returning
// the sample rows seen and the terminal line's cached marker.
func submitAndStream(base string, spec JobSpec) (samples int, cached bool, err error) {
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, false, fmt.Errorf("submit seed %d: %d %v", spec.Seed, resp.StatusCode, err)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Done   bool   `json:"done"`
			State  string `json:"state"`
			Cached bool   `json:"cached"`
			Node   *int   `json:"node"`
		}
		if err := dec.Decode(&line); err != nil {
			return samples, false, fmt.Errorf("job %s: stream ended without a terminal line: %v", st.ID, err)
		}
		if line.Done {
			if line.State != string(JobDone) {
				return samples, false, fmt.Errorf("job %s ended %s", st.ID, line.State)
			}
			return samples, line.Cached, nil
		}
		if line.Node != nil {
			samples++
		}
	}
}
