package main

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/osn"
	"repro/internal/serve"
)

// TestRunClosedAndOpenLoop drives an in-process daemon once closed-loop and
// once open-loop and checks the record each run writes: every job ran,
// every sample arrived, nothing failed or was shed.
func TestRunClosedAndOpenLoop(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	m := serve.NewManager(serve.NewEngine(osn.NewNetwork(g)), serve.Config{Runners: 2, WorkerBudget: 4})
	srv := httptest.NewServer(serve.Handler(m))
	defer func() { srv.Close(); m.Close() }()

	const jobs, count = 6, 5
	for _, tc := range []struct {
		mode string
		rate float64
		seed int64 // distinct per run, so no job is a result-cache hit
	}{{"closed", 0, 1}, {"open", 50, 100}} {
		out := filepath.Join(t.TempDir(), tc.mode+".json")
		if err := run(srv.URL, jobs, 2, count, 2, "srw", "sample", tc.seed, false, time.Second,
			tc.mode, out, time.Minute, tc.rate); err != nil {
			t.Fatalf("%s loop: %v", tc.mode, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("%s loop record: %v\n%s", tc.mode, err, b)
		}
		if rec.Mode != tc.mode || rec.Label != tc.mode || rec.Jobs != jobs {
			t.Fatalf("%s loop record: mode %q label %q jobs %d", tc.mode, rec.Mode, rec.Label, rec.Jobs)
		}
		if rec.Samples != jobs*count || rec.Errors != 0 || rec.Shed != 0 {
			t.Fatalf("%s loop: samples %d (want %d), errors %d, shed %d",
				tc.mode, rec.Samples, jobs*count, rec.Errors, rec.Shed)
		}
		if rec.SamplesPerSec <= 0 || rec.LatencyMS.P50 <= 0 || rec.SampleLatencyMS.P50 <= 0 {
			t.Fatalf("%s loop: empty throughput or latency digests: %s", tc.mode, b)
		}
	}
}
