package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fastrand"
	"repro/internal/gen"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{xs, 0, 1},
		{xs, 50, 2.5},
		{xs, 100, 4},
		{xs, 90, 3.7},
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, []interval{{10, 30}}, 80},
		{"disjoint children", 0, 100, []interval{{60, 70}, {10, 30}}, 70},
		{"overlap counted once", 0, 100, []interval{{10, 40}, {30, 50}, {45, 50}}, 60},
		{"touching children", 0, 100, []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the span", 50, 100, []interval{{0, 60}, {90, 200}}, 30},
		{"outside the span", 50, 100, []interval{{0, 40}, {120, 130}}, 50},
		{"covers everything", 0, 100, []interval{{0, 100}, {20, 30}}, 0},
	} {
		if got := selfTime(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestOpenLoopKeepsSchedule fires jobs that each take far longer than the
// interval between them: an open loop must still fire every job on its own
// schedule, not wait for earlier jobs, and report small lateness.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const n, rate = 20, 200.0 // one job every 5 ms
	dues := make([]time.Time, n)
	var fired atomic.Int64
	start, late, err := openLoop(n, rate, 10*time.Second, nil, func(i int, due time.Time) {
		dues[i] = due
		fired.Add(1)
		time.Sleep(40 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() != n || len(late) != n {
		t.Fatalf("fired %d jobs with %d lateness values, want %d", fired.Load(), len(late), n)
	}
	for i, due := range dues {
		want := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Equal(want) {
			t.Fatalf("job %d due %v after start, want %v", i, due.Sub(start), want.Sub(start))
		}
		if late[i] < 0 {
			t.Fatalf("job %d lateness %g ms is negative", i, late[i])
		}
	}
	// Serial firing would take n × 40 ms = 800 ms; on schedule the whole run
	// is the last due time (95 ms) plus one job.
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("open loop took %v: it waited for jobs instead of firing on schedule", took)
	}
	if p50 := percentile(late, 50); p50 > 20 {
		t.Errorf("median lateness %g ms: the generator fell behind its schedule", p50)
	}
}

// TestOpenLoopProbePause checks that a probe pause shifts the rest of the
// schedule by the pause instead of making the jobs after it late.
func TestOpenLoopProbePause(t *testing.T) {
	hp := newHostProbe(gen.BarabasiAlbert(2000, 3, fastrand.New(1)))
	hp.next = time.Now().Add(25 * time.Millisecond) // due just before job 3
	const n, rate = 8, 100.0
	dues := make([]time.Time, n)
	_, late, err := openLoop(n, rate, 10*time.Second, hp, func(i int, due time.Time) { dues[i] = due })
	if err != nil {
		t.Fatal(err)
	}
	if len(hp.ms) != 1 || hp.ms[0] <= 0 || hp.pauseWall <= 0 || hp.slowdown() <= 0 {
		t.Fatalf("probe took %d samples %v, paused %v", len(hp.ms), hp.ms, hp.pauseWall)
	}
	step := time.Duration(float64(time.Second) / rate)
	gaps := 0
	for i := 1; i < n; i++ {
		switch gap := dues[i].Sub(dues[i-1]); {
		case gap == step:
		case gap >= step+hp.pauseWall-time.Millisecond:
			gaps++
		default:
			t.Fatalf("gap %d→%d is %v: want %v, or that plus the %v pause", i-1, i, gap, step, hp.pauseWall)
		}
	}
	if gaps != 1 {
		t.Fatalf("%d shifted gaps, want 1", gaps)
	}
	if p50 := percentile(late, 50); p50 > 20 {
		t.Errorf("median lateness %g ms after a pause", p50)
	}
}

func TestOpenLoopDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	_, _, err := openLoop(2, 1000, 50*time.Millisecond, nil, func(int, time.Time) { <-release })
	close(release)
	if err == nil {
		t.Fatal("open loop returned without error while jobs were still running")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics and workloads this
// command reports in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit || d.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, d, want[i])
			}
			if (d.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// TestSmoke runs every workload, untraced and traced, at a small scale and
// checks that outputs verify, nothing fails, every metric is reported and
// the traced run's output digest equals the untraced one's.
func TestSmoke(t *testing.T) {
	p := params{seed: 1, seconds: 0.15, nodes: 2000, setupReps: 1, warmup: 4, hot: 4}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.jsonl")
			res, rec, err := runWorkload(w, p, true, out, newProvenance(w.name, p.seed, p.seconds, true, "test"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2*digestJobs {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, rec.Notes)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, d := range endToEnd {
				if _, ok := rec.TraceOverhead[d.name]; !ok {
					t.Errorf("no tracing overhead for %s", d.name)
				}
			}
			if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
				t.Errorf("trace file %s not written: %v", out, err)
			}
		})
	}
}

// TestEndToEndMetricsNonZero checks an untraced run reports every end-to-end
// metric with a positive value on every workload.
func TestEndToEndMetricsNonZero(t *testing.T) {
	p := params{seed: 2, seconds: 0.15, nodes: 2000, setupReps: 2, warmup: 4, hot: 4}
	for _, w := range workloads {
		res, rec, err := runWorkload(w, p, false, "", newProvenance(w.name, p.seed, p.seconds, false, "test"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: %v", w.name, rec.Notes)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %g, want > 0", w.name, d.name, v)
			}
		}
	}
}
