//go:build !race

package cluster

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/serve"
)

// TestFleetScalesAtHighLatency is the fleet's reason to exist, at the
// paper's high-latency operating point: over a backend at 10 ms per round
// trip, three workers must clear at least 1.8× the samples/s of one on the
// same job set. The race detector slows the workers unevenly, so the test
// is built only without it; CI runs it in a step of its own.
func TestFleetScalesAtHighLatency(t *testing.T) {
	const jobs = 24
	g := gen.BarabasiAlbert(3000, 3, rand.New(rand.NewSource(7)))
	mkNet := func() *osn.Network {
		return osn.NewNetworkOn(osn.NewRemoteSim(osn.NewMemBackend(g), 10*time.Millisecond, 0, 0))
	}
	samplesPerSec := func(workers int) float64 {
		tf := startFleet(t, workers, mkNet, serve.Config{Runners: 1, WorkerBudget: 4}, CoordinatorConfig{})
		defer tf.close()
		start := time.Now()
		ids := make([]string, jobs)
		for i := range ids {
			ids[i] = tf.submit(t, serve.JobSpec{Type: serve.TypeSample, Count: 1, Seed: int64(100 + i), Workers: 2}).ID
		}
		samples := 0
		for _, id := range ids {
			rows, term := tf.readStream(t, id, nil)
			if term.State != string(serve.JobDone) {
				t.Fatalf("%d workers: job %s ended %+v", workers, id, term)
			}
			samples += len(rows)
		}
		return float64(samples) / time.Since(start).Seconds()
	}
	one, three := samplesPerSec(1), samplesPerSec(3)
	ratio := three / one
	t.Logf("%d jobs at 10 ms: 1 worker %.2f samples/s, 3 workers %.2f samples/s (%.2f×)", jobs, one, three, ratio)
	if ratio < 1.8 {
		t.Fatalf("3 workers reach only %.2f× one worker's samples/s, want >= 1.8×", ratio)
	}
}
