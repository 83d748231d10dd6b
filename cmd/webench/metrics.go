package main

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions (and the end-to-end bounds); a test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library or the service sees. Every
// workload reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", "higher"},
	{"queries_per_sample", "count", "lower"},
	{"steps_per_sample", "count", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"first_sample_p50_ms", "ms", "lower"},
	{"cpu_ms_per_sample", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics a traced run reports. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"osn.backend.calls_per_sample", "count", "lower"},
	{"osn.backend.elems_per_call", "count", "higher"},
	{"osn.backend.wait_ms_per_sample", "ms", "lower"},
	{"osn.shared.hit_ratio", "ratio", "higher"},
	{"osn.shared.unique_charges", "count", "lower"},
	{"osn.client.lookups_per_sample", "count", "lower"},
	{"core.crawl.build_ms", "ms", "lower"},
	{"core.sampler.acceptance_rate", "ratio", "higher"},
	{"core.sampler.fwd_steps_per_sample", "count", "lower"},
	{"core.sampler.back_steps_per_sample", "count", "lower"},
	{"core.sampler.self_ms_per_sample", "ms", "lower"},
	{"core.parallel.cpu_ratio_vs_seq", "ratio", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p90", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.http_ms_p50", "ms", "lower"},
	{"serve.result_cache.hit_ratio", "ratio", "higher"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"cluster.coord.cache_hit_ratio", "ratio", "higher"},
	{"cluster.dispatch_ms_p50", "ms", "lower"},
	{"cluster.handoffs", "count", "lower"},
	{"cluster.remote_fallbacks", "count", "lower"},
	{"runtime.alloc_bytes_per_sample", "bytes", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between the two nearest order statistics; 0 for no values. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open span of time in nanoseconds since a tracer epoch.
type interval struct{ start, end int64 }

// selfTime is the part of [lo, hi) that no child interval covers: the span's
// duration minus the union of its children clipped to it, so overlapping
// children (concurrent backend calls) are subtracted once. ivs is reordered.
func selfTime(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	covered := int64(0)
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		s, e := max64(iv.start, lo), min64(iv.end, hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max64(curE, e)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		covered += curE - curS
	}
	return hi - lo - covered
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// rowHasher hashes one job's output rows (seed, i, node, steps), the
// quantities the determinism contract fixes for a spec.
type rowHasher struct{ buf [32]byte }

func (h *rowHasher) job(seed int64, nodes, steps []int) uint64 {
	f := fnv.New64a()
	binary.LittleEndian.PutUint64(h.buf[:8], uint64(seed))
	f.Write(h.buf[:8])
	for i := range nodes {
		binary.LittleEndian.PutUint64(h.buf[0:], uint64(i))
		binary.LittleEndian.PutUint64(h.buf[8:], uint64(nodes[i]))
		binary.LittleEndian.PutUint64(h.buf[16:], uint64(steps[i]))
		f.Write(h.buf[:24])
	}
	return f.Sum64()
}

// digestJobs is how many leading jobs of a workload's job list the
// output_digest covers. Every run completes at least this many, so the digest
// is comparable across runs of any length.
const digestJobs = 8

// outputDigest folds the row hashes of the first digestJobs jobs, in job-list
// order, into one value.
func outputDigest(jobHashes []uint64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i, h := range jobHashes {
		if i == digestJobs {
			break
		}
		binary.LittleEndian.PutUint64(b[:], h)
		f.Write(b[:])
	}
	return f.Sum64()
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds
	totalCPU float64       // cumulative CPU seconds the runtime accounts
	maxRSSMB float64
}

var usageSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[2].Value.Float64()
	}
	return u
}

// provenance records what produced a result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

func newProvenance(workload string, seed int64, seconds float64, trace bool, commit string) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), Commit: commit,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
