// Command weload is a load generator for the weserve daemon. By default it
// runs closed-loop: C concurrent loops each submit a sampling job, follow
// its NDJSON stream counting samples as they arrive, and move on to the next
// job — so offered load tracks service capacity instead of piling up. With
// -rate R it runs open-loop instead: jobs are submitted at a fixed R jobs/s
// regardless of completions, which is how you measure latency under a load
// the service does not control (the classic coordinated-omission-free
// setup). It reports throughput (jobs/s, samples/s) and job- and
// per-sample latency percentiles as a JSON record.
//
// Submissions turned away with a load-shedding 503 (queue full or draining)
// are retried up to 5 times, honoring the daemon's Retry-After hint with a
// capped backoff; jobs still shed afterwards are counted in "shed" (apart
// from "errors") and every 503-triggered re-submission in "submit_retries".
// Open-loop submission cadence is unaffected — retries ride inside each
// job's goroutine, so the extra wait shows up as latency, never as reduced
// offered load (coordinated omission stays out of the numbers).
//
// Usage:
//
//	weload -addr 127.0.0.1:7117 -jobs 16 -concurrency 4 -count 20 -workers 2
//	weload -addr 127.0.0.1:7117 -wait 10s -label warm -out run.json
//	weload -addr 127.0.0.1:7117 -rate 8 -jobs 64 -label open-loop
//
// -wait polls /healthz until the daemon answers (for scripts that boot
// weserve and immediately drive it). Seeds default to base+jobIndex so runs
// are reproducible; pass -same-seed to make every job identical (the warm-
// replay workload that isolates cache effects). The address may be a
// cluster coordinator (weserve -role coordinator): the API is identical.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7117", "weserve address (host:port or URL)")
		jobs     = flag.Int("jobs", 16, "total jobs to run")
		conc     = flag.Int("concurrency", 4, "closed-loop client loops")
		count    = flag.Int("count", 20, "samples per job")
		workers  = flag.Int("workers", 2, "estimation workers per job")
		design   = flag.String("design", "srw", "input design: srw | mhrw")
		jobType  = flag.String("type", "sample", "job type: sample | estimate-mean | walk-path")
		seed     = flag.Int64("seed", 1, "base seed (job i uses seed+i)")
		sameSeed = flag.Bool("same-seed", false, "give every job the identical seed (warm-replay workload)")
		wait     = flag.Duration("wait", 0, "poll /healthz up to this long before starting")
		label    = flag.String("label", "", "label recorded in the output JSON")
		out      = flag.String("out", "", "output path for the JSON record (default stdout)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-job client timeout")
		rate     = flag.Float64("rate", 0, "open-loop submission rate in jobs/s (0 = closed-loop)")
	)
	flag.Parse()
	if err := run(*addr, *jobs, *conc, *count, *workers, *design, *jobType,
		*seed, *sameSeed, *wait, *label, *out, *timeout, *rate); err != nil {
		fmt.Fprintln(os.Stderr, "weload:", err)
		os.Exit(1)
	}
}

// record is the JSON document weload emits.
type record struct {
	Label string `json:"label,omitempty"`
	Addr  string `json:"addr"`
	Type  string `json:"type"`
	// Mode is "closed" (loops paced by completions) or "open" (fixed
	// submission rate).
	Mode          string  `json:"mode"`
	OfferedRate   float64 `json:"offered_rate_jobs_per_sec,omitempty"`
	Design        string  `json:"design"`
	Jobs          int     `json:"jobs"`
	Concurrency   int     `json:"concurrency,omitempty"`
	CountPerJob   int     `json:"count_per_job"`
	WorkersPerJob int     `json:"workers_per_job"`
	Errors        int     `json:"errors"`
	// Shed counts jobs the daemon turned away with a load-shedding 503
	// (queue full or draining) that were still shed after exhausting the
	// submit retries. SubmitRetries counts every 503-triggered
	// re-submission, including those that eventually got through.
	Shed          int   `json:"shed"`
	SubmitRetries int64 `json:"submit_retries"`
	// FailureReasons counts failed jobs by the daemon's typed reason
	// ("backend_unavailable", "deadline_exceeded", or the terminal state
	// when no reason was attached).
	FailureReasons map[string]int64 `json:"failure_reasons,omitempty"`
	Samples        int64            `json:"samples"`
	WallS          float64          `json:"wall_s"`
	SamplesPerSec  float64          `json:"samples_per_sec"`
	JobsPerSec     float64          `json:"jobs_per_sec"`
	LatencyMS      struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	// SampleLatencyMS summarizes per-sample stream timestamps: for every
	// sample line, the time from its job's submission to the line's arrival
	// on the NDJSON stream. Where LatencyMS describes whole jobs, this
	// describes the latency an end user streaming results actually
	// experiences per sample (first samples arrive long before the job
	// finishes).
	SampleLatencyMS struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Max  float64 `json:"max"`
	} `json:"sample_latency_ms"`
	FleetQueries int64 `json:"fleet_queries_after"`
}

func run(addr string, jobs, conc, count, workers int, design, jobType string,
	seed int64, sameSeed bool, wait time.Duration, label, out string,
	timeout time.Duration, rate float64) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: timeout}

	if wait > 0 {
		if err := waitHealthy(client, base, wait); err != nil {
			return err
		}
	}
	if jobs < 1 || conc < 1 {
		return fmt.Errorf("need jobs >= 1 and concurrency >= 1")
	}
	if rate < 0 {
		return fmt.Errorf("need rate >= 0")
	}
	if conc > jobs {
		conc = jobs
	}

	var (
		next       atomic.Int64
		samples    atomic.Int64
		errs       atomic.Int64
		shed       atomic.Int64
		subRetries atomic.Int64
		fleetQ     atomic.Int64
		mu         sync.Mutex
		latencies  []float64
		sampleLats []float64
		reasons    = make(map[string]int64)
		wg         sync.WaitGroup
	)
	doJob := func(i int) {
		s := seed + int64(i)
		if sameSeed {
			s = seed
		}
		t0 := time.Now()
		res := runJob(client, base, jobType, design, count, workers, s)
		samples.Add(res.samples)
		subRetries.Add(res.submitRetries)
		if res.shed {
			// Shed jobs are the daemon saying "not now", not a failure of
			// either side — counted apart from errors and kept out of the
			// latency population (they never ran).
			fmt.Fprintf(os.Stderr, "weload: job %d: shed: %v\n", i, res.err)
			shed.Add(1)
			return
		}
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "weload: job %d: %v\n", i, res.err)
			errs.Add(1)
			if res.reason != "" {
				mu.Lock()
				reasons[res.reason]++
				mu.Unlock()
			}
			return
		}
		if res.fleetQueries > 0 {
			// Best-effort meter read: never let a failed status
			// fetch zero out a valid reading from an earlier job.
			fleetQ.Store(res.fleetQueries)
		}
		d := time.Since(t0)
		mu.Lock()
		latencies = append(latencies, float64(d)/float64(time.Millisecond))
		sampleLats = append(sampleLats, res.stamps...)
		mu.Unlock()
	}

	began := time.Now()
	if rate > 0 {
		// Open-loop: one goroutine per job, launched on a fixed cadence
		// regardless of completions. Latency under load is measured against
		// the intended submission schedule, so a slow service shows up as
		// latency, not as reduced offered load.
		interval := time.Duration(float64(time.Second) / rate)
		tick := time.NewTicker(interval)
		for i := 0; i < jobs; i++ {
			if i > 0 {
				<-tick.C
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				doJob(i)
			}(i)
		}
		tick.Stop()
	} else {
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= jobs {
						return
					}
					doJob(i)
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(began)

	mode := "closed"
	if rate > 0 {
		mode = "open"
		conc = 0
	}
	rec := record{
		Label: label, Addr: base, Type: jobType, Mode: mode, OfferedRate: rate,
		Design: design,
		Jobs:   jobs, Concurrency: conc, CountPerJob: count, WorkersPerJob: workers,
		Errors:        int(errs.Load()),
		Shed:          int(shed.Load()),
		SubmitRetries: subRetries.Load(),
		Samples:       samples.Load(),
		WallS:         wall.Seconds(),
		FleetQueries:  fleetQ.Load(),
	}
	if len(reasons) > 0 {
		rec.FailureReasons = reasons
	}
	if wall > 0 {
		rec.SamplesPerSec = float64(rec.Samples) / wall.Seconds()
		rec.JobsPerSec = float64(jobs-rec.Errors-rec.Shed) / wall.Seconds()
	}
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		sum := 0.0
		for _, v := range latencies {
			sum += v
		}
		rec.LatencyMS.Mean = sum / float64(len(latencies))
		rec.LatencyMS.P50 = percentile(latencies, 0.50)
		rec.LatencyMS.P90 = percentile(latencies, 0.90)
		rec.LatencyMS.P99 = percentile(latencies, 0.99)
		rec.LatencyMS.Max = latencies[len(latencies)-1]
	}
	sort.Float64s(sampleLats)
	if len(sampleLats) > 0 {
		sum := 0.0
		for _, v := range sampleLats {
			sum += v
		}
		rec.SampleLatencyMS.Mean = sum / float64(len(sampleLats))
		rec.SampleLatencyMS.P50 = percentile(sampleLats, 0.50)
		rec.SampleLatencyMS.P95 = percentile(sampleLats, 0.95)
		rec.SampleLatencyMS.P99 = percentile(sampleLats, 0.99)
		rec.SampleLatencyMS.Max = sampleLats[len(sampleLats)-1]
	}

	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// jobResult is everything one job attempt yields: the sample count, the
// fleet-wide query meter from the terminal status, per-sample stream
// timestamps (ms from submission to each line's arrival), how many
// load-shedding 503s were retried through, whether the job was ultimately
// shed, and — for failed jobs — the daemon's typed failure reason.
type jobResult struct {
	samples       int64
	fleetQueries  int64
	stamps        []float64
	submitRetries int64
	shed          bool
	reason        string
	err           error
}

// Load-shedding 503s are retried with the daemon's own backoff hint
// (retry_after_ms in the body, else the Retry-After header), falling back to
// 100ms doubling, everything capped — an overloaded service gets breathing
// room without the client waiting forever.
const (
	maxSubmitRetries = 5
	maxRetryBackoff  = 2 * time.Second
)

// submitJob POSTs the spec, retrying load-shedding 503s up to
// maxSubmitRetries times. Returns the job id, the retry count, and whether
// the job was shed after exhausting the retries.
func submitJob(client *http.Client, base string, body []byte) (string, int64, bool, error) {
	var retries int64
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", retries, false, err
		}
		sub, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(sub, &st); err != nil {
				return "", retries, false, fmt.Errorf("submit response: %v", err)
			}
			return st.ID, retries, false, nil
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			return "", retries, false, fmt.Errorf("submit: %d %s", resp.StatusCode, bytes.TrimSpace(sub))
		}
		if attempt >= maxSubmitRetries {
			return "", retries, true, fmt.Errorf("submit: %d %s (after %d retries)", resp.StatusCode, bytes.TrimSpace(sub), retries)
		}
		retries++
		time.Sleep(retryDelay(resp, sub, attempt))
	}
}

// retryDelay picks the pause before re-submitting after a 503: the daemon's
// hint if it sent one, else exponential from 100ms, capped at
// maxRetryBackoff.
func retryDelay(resp *http.Response, body []byte, attempt int) time.Duration {
	d := 100 * time.Millisecond << attempt
	var hint struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &hint) == nil && hint.RetryAfterMS > 0 {
		d = time.Duration(hint.RetryAfterMS) * time.Millisecond
	} else if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d
}

// runJob submits one job (retrying load-shedding 503s) and follows its
// NDJSON stream to completion.
func runJob(client *http.Client, base, jobType, design string, count, workers int, seed int64) jobResult {
	spec := map[string]any{
		"type":    jobType,
		"design":  design,
		"count":   count,
		"seed":    seed,
		"workers": workers,
	}
	body, _ := json.Marshal(spec)
	submitted := time.Now()
	id, retries, wasShed, err := submitJob(client, base, body)
	res := jobResult{submitRetries: retries, shed: wasShed}
	if err != nil {
		res.err = err
		return res
	}

	resp, err := client.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.stamps = make([]float64, 0, count)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var terminal struct {
		Done          bool   `json:"done"`
		State         string `json:"state"`
		Error         string `json:"error"`
		FailureReason string `json:"failure_reason"`
	}
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &terminal); err == nil && terminal.Done {
				continue
			}
		}
		var s struct {
			Node *int  `json:"node"`
			Cost int64 `json:"cost"`
		}
		if err := json.Unmarshal(line, &s); err != nil || s.Node == nil {
			continue
		}
		res.samples++
		res.stamps = append(res.stamps, float64(time.Since(submitted))/float64(time.Millisecond))
	}
	if err := sc.Err(); err != nil {
		res.err = err
		return res
	}
	if terminal.State != "done" {
		res.reason = terminal.FailureReason
		if res.reason == "" {
			res.reason = terminal.State
		}
		res.err = fmt.Errorf("job %s ended %q (%s): %s", id, terminal.State, res.reason, terminal.Error)
		return res
	}

	// One status read for the fleet meter after the job.
	resp, err = client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return res // stream already succeeded; meter is best-effort
	}
	defer resp.Body.Close()
	var full struct {
		Result *struct {
			FleetQueries int64 `json:"fleet_queries"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err == nil && full.Result != nil {
		res.fleetQueries = full.Result.FleetQueries
	}
	return res
}

func waitHealthy(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v", base, wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// percentile returns the p-th percentile of sorted xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
