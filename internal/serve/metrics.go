package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/osn"
)

// Histogram is a fixed-bucket latency histogram in the Prometheus
// exposition shape (cumulative le buckets, sum, count). Observations and
// scrapes are lock-free: per-bucket atomic counters plus an atomic
// nanosecond sum.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending; +Inf implicit
	counts []atomic.Int64
	total  atomic.Int64
	sumNs  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (in seconds). An implicit +Inf bucket is appended.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// defaultBuckets spans 1 ms .. 30 s, wide enough for queue waits and runs
// over simulated remote backends alike.
func defaultBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNs.Add(int64(d))
}

// writeProm emits the histogram in Prometheus text exposition format under
// the given metric name, with one constant label pair.
func (h *Histogram) writeProm(w io.Writer, name, labelKey, labelVal string) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, labelKey, labelVal, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, labelKey, labelVal,
		formatFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, labelVal, h.total.Load())
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// Metrics is the service's metric registry. All counters are atomic; the
// cache/meter counters surfaced from internal/osn are read as atomic
// snapshots at scrape time, so a scrape never takes a lock.
type Metrics struct {
	start time.Time

	jobsSubmitted  atomic.Int64
	jobsRejected   atomic.Int64
	jobsShed       atomic.Int64 // 503'd at admission: queue full or draining
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsCancelled  atomic.Int64
	jobsEvicted    atomic.Int64
	jobsInFlight   atomic.Int64
	jobsResumed    atomic.Int64 // incomplete journal records re-run at boot
	jobsRestarted  atomic.Int64 // incomplete records re-run as new streams
	jobsRehydrated atomic.Int64 // terminal journal records restored at boot
	samples        atomic.Int64

	queueWait *Histogram
	runDur    *Histogram
}

// NewMetrics returns a zeroed registry with the default latency buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		start:     time.Now(),
		queueWait: NewHistogram(defaultBuckets()...),
		runDur:    NewHistogram(defaultBuckets()...),
	}
}

// Samples returns the number of samples produced since start.
func (m *Metrics) Samples() int64 { return m.samples.Load() }

// InFlight returns the number of jobs currently running.
func (m *Metrics) InFlight() int64 { return m.jobsInFlight.Load() }

// Uptime returns the time since the registry was created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// WriteProm writes the full metric set in Prometheus text exposition format:
// job counters (including retention evictions), sample throughput, the
// engine's cache meters (atomic snapshots from internal/osn),
// simulated-backend meters when present, and the per-stage latency
// histograms. retained is the current job-record count (the quantity the
// retention sweeper bounds). With a nil engine (a fleet coordinator's
// manager) the engine and backend sections are left to the caller.
func (m *Metrics) WriteProm(w io.Writer, eng *Engine, retained int) {
	up := m.Uptime().Seconds()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}

	counter("walknotwait_jobs_submitted_total", "Jobs admitted to the queue.", m.jobsSubmitted.Load())
	counter("walknotwait_jobs_rejected_total", "Jobs refused by admission control or validation.", m.jobsRejected.Load())
	counter("walknotwait_jobs_shed_total", "Submissions turned away with 503 (queue full or draining).", m.jobsShed.Load())
	fmt.Fprintf(w, "# HELP walknotwait_jobs_finished_total Jobs finished, by terminal state.\n")
	fmt.Fprintf(w, "# TYPE walknotwait_jobs_finished_total counter\n")
	fmt.Fprintf(w, "walknotwait_jobs_finished_total{state=\"done\"} %d\n", m.jobsDone.Load())
	fmt.Fprintf(w, "walknotwait_jobs_finished_total{state=\"failed\"} %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "walknotwait_jobs_finished_total{state=\"cancelled\"} %d\n", m.jobsCancelled.Load())
	gauge("walknotwait_jobs_inflight", "Jobs currently running.", float64(m.jobsInFlight.Load()))
	counter("walknotwait_jobs_evicted_total", "Terminal job records evicted by the retention sweeper.", m.jobsEvicted.Load())
	gauge("walknotwait_jobs_retained", "Job records currently held (queued, running, and retained terminal).", float64(retained))

	samples := m.samples.Load()
	counter("walknotwait_samples_total", "Accepted samples produced across all jobs.", samples)
	rate := 0.0
	if up > 0 {
		rate = float64(samples) / up
	}
	gauge("walknotwait_samples_per_second", "Accepted samples per second of uptime.", rate)
	gauge("walknotwait_uptime_seconds", "Daemon uptime.", up)

	if eng != nil {
		cs := eng.CacheStats()
		counter("walknotwait_queries_charged_total", "Fleet-wide query cost (the paper's cost axis).", cs.Queries)
		counter("walknotwait_cache_calls_total", "Interface calls, cached or not.", cs.Calls)
		gauge("walknotwait_cache_unique_nodes", "Distinct nodes fetched into the shared cache.", float64(cs.UniqueNodes))
		gauge("walknotwait_cache_hit_ratio", "Fraction of interface calls served without a new charge.", cs.HitRatio())
		gauge("walknotwait_cache_owned_unique_nodes", "Distinct partition-owned nodes first-accessed here (== unique nodes unpartitioned).", float64(cs.OwnedUnique))
		counter("walknotwait_cache_remote_fallbacks_total", "Non-owned lookups served locally because the shard owner was unreachable.", cs.RemoteFallbacks)

		if sim := eng.Sim(); sim != nil {
			counter("walknotwait_backend_round_trips_total", "Simulated remote round trips.", sim.RoundTrips())
			gauge("walknotwait_backend_simulated_wait_seconds_total", "Total simulated latency charged.", sim.SimulatedWait().Seconds())
		}

		if res := eng.Resilient(); res != nil {
			rs := res.Stats()
			counter("walknotwait_backend_retries_total", "Backend accesses retried by the resilience middleware.", rs.Retries)
			counter("walknotwait_backend_retries_absorbed_total", "Backend accesses that succeeded after at least one retry.", rs.Absorbed)
			counter("walknotwait_backend_failures_total", "Backend accesses given up on after exhausting the retry policy.", rs.Failures)
			counter("walknotwait_backend_breaker_opens_total", "Circuit breaker transitions to open.", rs.BreakerOpens)
			gauge("walknotwait_backend_breaker_state", "Circuit breaker state (0=closed, 1=open, 2=half-open).", float64(rs.Breaker))
			gauge("walknotwait_backend_retry_budget", "Retry-budget tokens remaining.", rs.BudgetRemaining)
		}

		if fs := eng.Faults(); fs != nil {
			st := fs.Stats()
			counter("walknotwait_backend_attempts_total", "Round trips seen by the fault injector.", st.Attempts)
			fmt.Fprintf(w, "# HELP walknotwait_backend_faults_total Faults injected, by kind.\n")
			fmt.Fprintf(w, "# TYPE walknotwait_backend_faults_total counter\n")
			for k, n := range st.Injected {
				fmt.Fprintf(w, "walknotwait_backend_faults_total{kind=%q} %d\n", osn.FaultKind(k).String(), n)
			}
		}
	}

	fmt.Fprintf(w, "# HELP walknotwait_stage_seconds Per-stage job latency.\n")
	fmt.Fprintf(w, "# TYPE walknotwait_stage_seconds histogram\n")
	m.queueWait.writeProm(w, "walknotwait_stage_seconds", "stage", "queue")
	m.runDur.writeProm(w, "walknotwait_stage_seconds", "stage", "run")
}

// WriteProm writes the manager's full metric set: the registry's job and
// engine meters plus, when the durability layer is attached, the journal
// and boot-recovery sections.
func (m *Manager) WriteProm(w io.Writer) {
	m.met.WriteProm(w, m.eng, m.RetainedJobs())

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}

	// Result-cache meters. Emitted (as zeros) even with the cache disabled,
	// so dashboards keep a stable series set.
	rcs := m.ResultCacheStats()
	counter("walknotwait_jobs_cache_hits_total", "Repeat submissions served from the job result cache (zero walk steps, zero charges).", rcs.Hits)
	counter("walknotwait_jobs_cache_misses_total", "Submissions that missed the job result cache and ran live.", rcs.Misses)
	counter("walknotwait_jobs_cache_evictions_total", "Cached job results evicted by the LRU byte budget.", rcs.Evictions)
	gauge("walknotwait_jobs_cache_bytes", "Bytes held by the job result cache.", float64(rcs.Bytes))
	gauge("walknotwait_jobs_cache_entries", "Job results currently cached.", float64(rcs.Entries))
	counter("walknotwait_queries_saved_total", "Query charges avoided by result-cache hits (the original runs' costs).", rcs.QueriesSaved)

	fmt.Fprintf(w, "# HELP walknotwait_jobs_recovered_total Jobs recovered from the journal at boot, by mode.\n")
	fmt.Fprintf(w, "# TYPE walknotwait_jobs_recovered_total counter\n")
	fmt.Fprintf(w, "walknotwait_jobs_recovered_total{mode=\"resumed\"} %d\n", m.met.jobsResumed.Load())
	fmt.Fprintf(w, "walknotwait_jobs_recovered_total{mode=\"restarted\"} %d\n", m.met.jobsRestarted.Load())
	fmt.Fprintf(w, "walknotwait_jobs_recovered_total{mode=\"rehydrated\"} %d\n", m.met.jobsRehydrated.Load())
	recovering := 0.0
	if m.Recovering() {
		recovering = 1
	}
	gauge("walknotwait_recovering", "1 while resumed jobs are still replaying toward their pre-crash state.", recovering)
	gauge("walknotwait_recovery_seconds", "Boot recovery duration (elapsed so far while recovering).",
		m.RecoveryDuration().Seconds())

	jl := m.journal()
	if jl == nil {
		return
	}
	st := jl.Stats()
	counter("walknotwait_journal_appends_total", "Records appended to the job journal.", st.Appends)
	counter("walknotwait_journal_bytes_total", "Bytes appended to the job journal.", st.Bytes)
	counter("walknotwait_journal_fsyncs_total", "Journal fsyncs performed.", st.Fsyncs)
	counter("walknotwait_journal_rotations_total", "Journal segment rotations (each one a snapshot+compaction).", st.Rotations)
	counter("walknotwait_journal_append_errors_total", "Journal appends dropped by I/O errors or a closed journal.", st.AppendErrs)
	counter("walknotwait_journal_replay_corrupt_total", "Torn or corrupt frames found at replay (replay stops there).", st.Corrupt)
	gauge("walknotwait_journal_segments", "Journal segments currently on disk.", float64(st.Segments))
	fmt.Fprintf(w, "# HELP walknotwait_journal_fsync_seconds Journal fsync latency.\n")
	fmt.Fprintf(w, "# TYPE walknotwait_journal_fsync_seconds histogram\n")
	jl.fsyncDur.writeProm(w, "walknotwait_journal_fsync_seconds", "policy", string(jl.cfg.Fsync))
}
