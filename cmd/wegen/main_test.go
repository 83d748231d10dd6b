package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRunAllModels(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		model string
		n, m  int
		p     float64
	}{
		{"ba", 100, 3, 0},
		{"hk", 100, 3, 0.5},
		{"cycle", 20, 0, 0},
		{"hypercube", 16, 0, 0},
		{"barbell", 11, 0, 0},
		{"tree", 0, 3, 0},
		{"complete", 8, 0, 0},
		{"star", 9, 0, 0},
		{"gnp", 40, 0, 0.2},
		{"gnm", 40, 60, 0},
		{"regular", 20, 4, 0},
		{"smallsf", 0, 0, 0},
	}
	for _, c := range cases {
		out := filepath.Join(dir, c.model+".txt")
		if err := run(c.model, c.n, c.m, c.p, 0.1, 1, out, "txt", false); err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		g, err := graph.LoadEdgeList(out)
		if err != nil {
			t.Fatalf("%s: load: %v", c.model, err)
		}
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", c.model)
		}
	}
}

func TestRunDatasets(t *testing.T) {
	dir := t.TempDir()
	for _, model := range []string{"gplus", "yelp", "twitter"} {
		out := filepath.Join(dir, model+".txt")
		if err := run(model, 0, 0, 0, 0.01, 2, out, "txt", false); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if _, err := os.Stat(out); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 10, 2, 0, 0.5, 1, "", "txt", false); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown model error = %v", err)
	}
	// Generator panics surface as errors.
	if err := run("cycle", 2, 0, 0, 0.5, 1, "", "txt", false); err == nil {
		t.Fatal("tiny cycle should error")
	}
	// Bad dataset scale.
	if err := run("gplus", 0, 0, 0, 5.0, 1, "", "txt", false); err == nil {
		t.Fatal("bad scale should error")
	}
	// Unwritable output path.
	if err := run("ba", 10, 2, 0, 0.5, 1, "/nonexistent-dir/x.txt", "txt", false); err == nil {
		t.Fatal("unwritable path should error")
	}
}

func TestRunCSRFormat(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ba.csr")
	if err := run("ba", 300, 3, 0, 0.1, 1, out, "csr", true); err != nil {
		t.Fatal(err)
	}
	if !graph.IsCSRFile(out) {
		t.Fatal("output is not a binary CSR file")
	}
	m, err := graph.OpenCSR(out)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumNodes() != 300 || m.NumEdges() == 0 {
		t.Fatalf("csr graph n=%d m=%d", m.NumNodes(), m.NumEdges())
	}
	if err := run("ba", 10, 2, 0, 0.5, 1, "", "csr", false); err == nil {
		t.Fatal("csr to stdout should error")
	}
	if err := run("ba", 10, 2, 0, 0.5, 1, out, "bogus", false); err == nil {
		t.Fatal("unknown format should error")
	}
}
