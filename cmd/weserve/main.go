// Command weserve runs the sampling-as-a-service daemon: it loads a graph
// once — through any access backend (in-memory, memory-mapped disk CSR, or
// simulated remote API) — and serves sampling jobs over HTTP, keeping one
// long-lived shared neighbor cache and the crawl tables hot across all
// requests. The first job pays the warm-up; every later job rides on it.
//
// Usage:
//
//	weserve -in graph.csr -addr :7117
//	weserve -in graph.txt -backend sim -latency 10ms -jitter 2ms
//	weserve -in graph.csr -backend disk -runners 4 -worker-budget 16
//	weserve -in graph.txt -backend sim -faultrate 0.01 -retries 8
//	weserve -in graph.csr -journal /var/lib/weserve/journal -fsync interval
//
// Fleet mode (see DESIGN.md "Cluster architecture"):
//
//	weserve -role coordinator -addr :7117 -workers 3
//	weserve -role worker -in graph.csr -addr :7201 -join http://coord:7117
//
// A coordinator loads no graph: it admits jobs over the same HTTP surface,
// places each on a live worker, relays its NDJSON stream, re-dispatches on
// worker loss, and aggregates fleet meters — fleet-wide query charges stay
// exactly equal to a single process's. A worker is a full single-daemon
// stack that additionally owns a slice of the fleet's neighbor-cache shards
// and answers peer lookups for it at /cluster/v1/resolve.
//
// With -journal set, job lifecycle events are appended to a crash-safe
// journal: on restart, finished jobs are served from their durable records
// (zero new walk steps) and interrupted jobs resume by deterministic re-run,
// producing a client-visible stream bit-identical to an uninterrupted run.
// /readyz reports "recovering" (503) until resumed jobs catch back up.
//
// With -faultrate > 0 (or -outage) the backend is wrapped with a seeded
// deterministic fault injector and the retry/backoff/circuit-breaker
// middleware: transient faults are absorbed below the sampler (sample
// sequences stay bit-identical to a fault-free run), outages open the
// breaker, flip /readyz to 503, and fail in-flight jobs with a typed
// "backend_unavailable" reason while preserving their partial samples.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs[/{id}[/stream]], DELETE
// /v1/jobs/{id}, /healthz (+ /livez, /readyz), /metrics (Prometheus text).
// With -pprof, the net/http/pprof profiling endpoints are additionally
// served under /debug/pprof/ (opt-in; off by default).
// See cmd/weserve/README.md for a curl-able walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	wnw "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	var (
		in      = flag.String("in", "", "graph file: edge list or binary CSR (required)")
		backend = flag.String("backend", "mem", "access backend: mem | disk | sim")
		latency = flag.Duration("latency", 50*time.Millisecond, "simulated per-round-trip latency (sim backend)")
		jitter  = flag.Duration("jitter", 0, "simulated latency jitter, uniform in ±jitter (sim backend)")
		fanout  = flag.Int("fanout", 0, "simulated concurrent connections for batch requests (sim backend; 0 = default)")
		addr    = flag.String("addr", ":7117", "HTTP listen address")
		queue   = flag.Int("queue", 64, "bounded job-queue depth (admission control)")
		runners = flag.Int("runners", 2, "jobs run concurrently")
		budget  = flag.Int("worker-budget", 0, "global estimation-worker pool (0 = 4x runners)")
		maxWork = flag.Int("max-workers-per-job", 0, "per-job worker clamp (0 = the whole budget)")
		retain  = flag.Duration("retention", 0, "how long finished job records stay queryable (0 = 15m, negative disables eviction)")
		sweep   = flag.Duration("sweep", 0, "retention sweep interval (0 = retention/10, clamped to [1s,1m])")
		rcache  = flag.Int64("result-cache-bytes", 0, "job result-cache budget: repeat submissions are served from memoized results (0 = 64 MiB, negative disables)")

		faultRate = flag.Float64("faultrate", 0, "per-round-trip backend fault probability in [0,1) (0 disables injection)")
		faultSeed = flag.Int64("fault-seed", 1, "seed of the deterministic fault schedule")
		outage    = flag.String("outage", "", "full-outage window start+dur from startup, e.g. 2s+500ms")
		retries   = flag.Int("retries", 0, "max retries per backend access (0 = policy default)")

		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")

		journal    = flag.String("journal", "", "job-journal directory (empty disables durability)")
		fsync      = flag.String("fsync", "interval", "journal fsync policy: always | interval | off")
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync cadence under -fsync interval")
		segBytes   = flag.Int64("segment-bytes", 8<<20, "journal segment size before snapshot+rotation")

		role      = flag.String("role", "single", "process role: single | coordinator | worker")
		join      = flag.String("join", "", "coordinator base URL to join (worker role)")
		advertise = flag.String("advertise", "", "this worker's reachable base URL (worker role; default http://127.0.0.1<addr>)")
		workers   = flag.Int("workers", 0, "expected fleet size (coordinator role; required)")
		name      = flag.String("name", "", "operator label for this worker in fleet stats")
		hbTimeout = flag.Duration("heartbeat-timeout", 2*time.Second, "worker staleness before hand-off (coordinator role)")
	)
	flag.Parse()
	policy, err := serve.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weserve:", err)
		os.Exit(2)
	}
	jcfg := serve.JournalConfig{Dir: *journal, Fsync: policy, FsyncEvery: *fsyncEvery, SegmentBytes: *segBytes}

	if *role == "coordinator" {
		if *workers < 1 {
			fmt.Fprintln(os.Stderr, "weserve: -role coordinator requires -workers >= 1")
			os.Exit(2)
		}
		if err := runCoordinator(*addr, *workers, *hbTimeout, jcfg, *rcache); err != nil {
			fmt.Fprintln(os.Stderr, "weserve:", err)
			os.Exit(1)
		}
		return
	}
	if *role != "single" && *role != "worker" {
		fmt.Fprintf(os.Stderr, "weserve: unknown -role %q (want single, coordinator, or worker)\n", *role)
		os.Exit(2)
	}
	if *role == "worker" && *join == "" {
		fmt.Fprintln(os.Stderr, "weserve: -role worker requires -join")
		os.Exit(2)
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "weserve: -in is required")
		os.Exit(2)
	}
	fleet := fleetOptions{}
	if *role == "worker" {
		adv := *advertise
		if adv == "" {
			a := *addr
			if len(a) > 0 && a[0] == ':' {
				a = "127.0.0.1" + a
			}
			adv = "http://" + a
		}
		fleet = fleetOptions{join: *join, advertise: adv, name: *name}
	}
	faults := wnw.FaultOptions{Rate: *faultRate, Seed: *faultSeed, Outage: *outage, Retries: *retries}
	if err := run(*in, *backend, *latency, *jitter, *fanout, faults, *addr,
		*queue, *runners, *budget, *maxWork, *retain, *sweep, *rcache, jcfg, *pprofOn, fleet); err != nil {
		fmt.Fprintln(os.Stderr, "weserve:", err)
		os.Exit(1)
	}
}

// fleetOptions is the worker-role wiring; the zero value means single mode.
type fleetOptions struct {
	join      string
	advertise string
	name      string
}

// runCoordinator serves the fleet frontend: no graph, no engine — only the
// registry, the job relay, and the aggregated meters.
func runCoordinator(addr string, workers int, hbTimeout time.Duration, jcfg serve.JournalConfig, cacheBytes int64) error {
	var jl *serve.Journal
	var err error
	if jcfg.Dir != "" {
		jl, err = serve.OpenJournal(jcfg)
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		log.Printf("weserve: coordinator journal %q fsync=%s", jcfg.Dir, jcfg.Fsync)
	}
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Workers: workers, HeartbeatTimeout: hbTimeout, Journal: jl,
		CacheBytes: cacheBytes,
	})
	if err != nil {
		return err
	}
	log.Printf("weserve: coordinator addr=%s workers=%d heartbeat-timeout=%v", addr, workers, hbTimeout)
	srv := &http.Server{Addr: addr, Handler: co.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		co.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("weserve: coordinator shutting down")
	co.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("weserve: shutdown: %v", err)
	}
	return nil
}

func run(in, backendName string, latency, jitter time.Duration, fanout int,
	faults wnw.FaultOptions, addr string, queue, runners, budget, maxWork int,
	retention, sweep time.Duration, cacheBytes int64, jcfg serve.JournalConfig,
	pprofOn bool, fleet fleetOptions) error {
	be, cleanup, err := wnw.OpenBackend(in, backendName, latency, jitter, fanout)
	if err != nil {
		return err
	}
	defer cleanup()
	be, fsim, _, err := wnw.WrapFaults(be, faults)
	if err != nil {
		return err
	}
	if fsim != nil {
		log.Printf("weserve: fault injection on: rate=%v seed=%d outage=%q retries=%d",
			faults.Rate, faults.Seed, faults.Outage, faults.Retries)
	}

	net := wnw.NewNetworkOn(be)
	eng := serve.NewEngine(net)
	var jl *serve.Journal
	if jcfg.Dir != "" {
		jl, err = serve.OpenJournal(jcfg)
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		log.Printf("weserve: journal %q fsync=%s segment-bytes=%d", jcfg.Dir, jcfg.Fsync, jcfg.SegmentBytes)
	}
	mgr := serve.NewManager(eng, serve.Config{
		QueueDepth:       queue,
		Runners:          runners,
		WorkerBudget:     budget,
		MaxWorkersPerJob: maxWork,
		Retention:        retention,
		SweepInterval:    sweep,
		Journal:          jl,
		CacheBytes:       cacheBytes,
		Logf:             log.Printf,
	})
	if jl != nil {
		resumed, restarted, rehydrated := mgr.RecoveredCounts()
		if resumed+restarted+rehydrated > 0 {
			log.Printf("weserve: journal recovery: %d resumed, %d restarted, %d rehydrated", resumed, restarted, rehydrated)
		}
	}
	cfg := mgr.Config()
	log.Printf("weserve: graph %q (%d nodes, id=%s) backend=%s addr=%s runners=%d worker-budget=%d queue=%d retention=%v",
		in, net.NumNodes(), eng.GraphID(), backendName, addr, cfg.Runners, cfg.WorkerBudget, cfg.QueueDepth, cfg.Retention)
	if rcs := mgr.ResultCacheStats(); rcs.Enabled {
		log.Printf("weserve: result cache on: budget=%d bytes", rcs.MaxBytes)
	} else {
		log.Printf("weserve: result cache disabled")
	}

	handler := serve.Handler(mgr)
	var wk *cluster.Worker
	if fleet.join != "" {
		wk, err = cluster.NewWorker(mgr, cluster.WorkerConfig{
			Coordinator: fleet.join,
			Advertise:   fleet.advertise,
			Name:        fleet.name,
		})
		if err != nil {
			mgr.Close()
			return err
		}
		handler = wk.Handler()
		log.Printf("weserve: worker join=%s advertise=%s", fleet.join, fleet.advertise)
	}
	if pprofOn {
		// Opt-in only: profiling endpoints expose heap contents and must
		// never ride along on a production listener by default. Mounted on
		// an explicit mux (not http.DefaultServeMux) so nothing else an
		// imported package registers leaks onto the service address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("weserve: pprof endpoints enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if wk != nil {
		// Register once the listener is (about to be) up; Start retries while
		// the coordinator is still booting.
		go func() {
			if err := wk.Start(); err != nil {
				log.Printf("weserve: %v", err)
				return
			}
			log.Printf("weserve: joined fleet as worker %d", wk.Index())
		}()
	}
	select {
	case err := <-errc:
		if wk != nil {
			wk.Close()
		}
		mgr.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("weserve: shutting down")
	// Stop heartbeating first (the coordinator stops placing new jobs here),
	// then cancel jobs: that terminates their NDJSON streams, so Shutdown's
	// wait for in-flight handlers can actually finish.
	if wk != nil {
		wk.Close()
	}
	mgr.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("weserve: shutdown: %v", err)
	}
	return nil
}
