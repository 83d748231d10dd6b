package main

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	wnw "repro"
)

func writeGraph(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := wnw.NewBarabasiAlbert(200, 3, rng)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := wnw.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSamplers(t *testing.T) {
	path := writeGraph(t)
	cases := []struct {
		sampler string
		design  string
	}{
		{"we", "srw"},
		{"we", "mhrw"},
		{"geweke", "srw"},
		{"geweke", "mhrw"},
		{"fixed", "srw"},
		{"longrun", "srw"},
	}
	for _, c := range cases {
		if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, c.sampler, c.design, 10, -1, 0, 2, 50, 2, 0.1, 500, 1, 1, true); err != nil {
			t.Fatalf("%s/%s: %v", c.sampler, c.design, err)
		}
	}
}

func TestRunExplicitParameters(t *testing.T) {
	path := writeGraph(t)
	// Explicit start node and walk length.
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 5, 3, 9, 1, 50, 1, 0.1, 500, 7, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeGraph(t)
	if err := run("/missing.txt", "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("missing file should error")
	}
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "bogus", "srw", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("unknown sampler should error")
	}
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "bogus", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("unknown design should error")
	}
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", -1, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("negative count should error")
	}
}

func TestRunParallelWorkers(t *testing.T) {
	path := writeGraph(t)
	// The WALK-ESTIMATE sampler with a worker pool over the shared cache.
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 10, -1, 0, 2, 50, 1, 0.1, 500, 1, 4, true); err != nil {
		t.Fatal(err)
	}
}

func writeCSRGraph(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := wnw.NewBarabasiAlbert(200, 3, rng)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := wnw.SaveCSR(path, g, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiskBackend(t *testing.T) {
	path := writeCSRGraph(t)
	if err := run(path, "disk", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 10, -1, 0, 2, 50, 1, 0.1, 500, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	// mem over a CSR file decodes it to the heap.
	if err := run(path, "mem", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimBackend(t *testing.T) {
	path := writeGraph(t)
	if err := run(path, "sim", 200*time.Microsecond, 100*time.Microsecond, 8, wnw.FaultOptions{},
		"we", "srw", 5, -1, 0, 1, 50, 1, 0.1, 500, 1, 4, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunBackendErrors(t *testing.T) {
	path := writeGraph(t)
	if err := run(path, "disk", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("disk backend over an edge list should error")
	}
	if err := run(path, "bogus", 0, 0, 0, wnw.FaultOptions{}, "we", "srw", 5, -1, 0, 2, 50, 1, 0.1, 500, 1, 1, true); err == nil {
		t.Fatal("unknown backend should error")
	}
}
