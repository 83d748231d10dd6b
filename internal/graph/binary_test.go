package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func csrTestGraph(t testing.TB) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(200)
	for i := 0; i < 600; i++ {
		b.AddEdge(rng.Intn(200), rng.Intn(200))
	}
	return b.Build()
}

func graphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: got n=%d m=%d, want n=%d m=%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < want.NumNodes(); v++ {
		w, g := want.Neighbors(v), got.Neighbors(v)
		if len(w) != len(g) {
			t.Fatalf("node %d: degree %d != %d", v, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d neighbor %d: %d != %d", v, i, g[i], w[i])
			}
		}
	}
}

func TestCSRRoundTripLoad(t *testing.T) {
	g := csrTestGraph(t)
	attrs := map[string][]float64{
		"rating": make([]float64, g.NumNodes()),
		"age":    make([]float64, g.NumNodes()),
	}
	for v := range attrs["rating"] {
		attrs["rating"][v] = float64(v) * 0.5
		attrs["age"][v] = float64(v%37) + 0.25
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := SaveCSR(path, g, attrs); err != nil {
		t.Fatal(err)
	}
	if !IsCSRFile(path) {
		t.Error("IsCSRFile should recognize its own output")
	}
	got, gotAttrs, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
	for name, want := range attrs {
		vals, ok := gotAttrs[name]
		if !ok {
			t.Fatalf("attribute %q lost in round trip", name)
		}
		for v := range want {
			if vals[v] != want[v] {
				t.Fatalf("attr %q node %d: %v != %v", name, v, vals[v], want[v])
			}
		}
	}
}

func TestCSRRoundTripOpen(t *testing.T) {
	g := csrTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := SaveCSR(path, g, map[string][]float64{"x": make([]float64, g.NumNodes())}); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	graphsEqual(t, g, m.Graph())
	if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() {
		t.Fatalf("mapped shape n=%d m=%d", m.NumNodes(), m.NumEdges())
	}
	if got := m.AttrNames(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("AttrNames = %v", got)
	}
	if m.Attr("x") == nil || m.Attr("missing") != nil {
		t.Error("Attr lookup wrong")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestCSREmptyAndZeroEdgeGraphs(t *testing.T) {
	for _, g := range []*Graph{NewBuilder(0).Build(), NewBuilder(5).Build()} {
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		m, err := parseCSR(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if m.NumNodes() != g.NumNodes() || m.NumEdges() != 0 {
			t.Fatalf("round trip: n=%d m=%d", m.NumNodes(), m.NumEdges())
		}
	}
}

func TestCSRErrors(t *testing.T) {
	dir := t.TempDir()
	edgeList := filepath.Join(dir, "g.txt")
	if err := SaveEdgeList(edgeList, csrTestGraph(t)); err != nil {
		t.Fatal(err)
	}
	if IsCSRFile(edgeList) {
		t.Error("edge list misdetected as CSR")
	}
	if _, err := OpenCSR(edgeList); err == nil {
		t.Error("OpenCSR of an edge list should fail")
	}
	if _, _, err := LoadCSR(filepath.Join(dir, "missing.csr")); err == nil {
		t.Error("LoadCSR of missing file should fail")
	}
	// Truncated file: valid header, cut-off arrays.
	full := filepath.Join(dir, "g.csr")
	if err := SaveCSR(full, csrTestGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.csr")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSR(trunc); err == nil {
		t.Error("OpenCSR of truncated file should fail")
	}
	// Attribute length validation on write.
	if err := WriteCSR(&bytes.Buffer{}, csrTestGraph(t), map[string][]float64{"bad": {1, 2}}); err == nil {
		t.Error("WriteCSR with short attribute table should fail")
	}
}

func TestCSRRejectsCraftedHeaders(t *testing.T) {
	g := csrTestGraph(t)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), buf.Bytes()...)
		mutate(b)
		_, err := parseCSR(b)
		return err
	}
	// Node count that wraps the size arithmetic.
	if err := corrupt(func(b []byte) {
		for i := 16; i < 24; i++ {
			b[i] = 0xff
		}
	}); err == nil {
		t.Error("huge n accepted")
	}
	// Adjacency length beyond the file.
	if err := corrupt(func(b []byte) {
		b[24], b[25], b[26], b[27] = 0xff, 0xff, 0xff, 0x7f
	}); err == nil {
		t.Error("huge adjLen accepted")
	}
	// Non-monotone offsets.
	if err := corrupt(func(b []byte) {
		b[csrHeaderSize+4] = 0xff
		b[csrHeaderSize+7] = 0x7f
	}); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	// Attribute offset that wraps the arithmetic (attrCount=1, attrOff=2^64-2).
	if err := corrupt(func(b []byte) {
		b[32] = 1
		for i := 40; i < 48; i++ {
			b[i] = 0xff
		}
		b[40] = 0xfe
	}); err == nil {
		t.Error("wrapping attrOff accepted")
	}
}

// hugeAttrCountCSR is a 152-byte CSR file of the complete graph K5 whose
// header claims attrCount attribute tables in an empty attribute section.
func hugeAttrCountCSR(t testing.TB, attrCount uint64) []byte {
	t.Helper()
	b := NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSR(&buf, b.Build(), nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[32:], attrCount)
	binary.LittleEndian.PutUint64(data[40:], uint64(len(data)))
	return data
}

// TestCSRRejectsHugeAttrCount: a header's attribute count must not size
// any allocation before it is checked against the file. Unchecked, 2^26
// tables pre-sized a 6 GB map before the parse failed.
func TestCSRRejectsHugeAttrCount(t *testing.T) {
	for _, count := range []uint64{1, 1 << 26, 1 << 30, 1<<64 - 1} {
		data := hugeAttrCountCSR(t, count)
		if len(data) != 152 {
			t.Fatalf("fixture is %d bytes, want 152", len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseCSR(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("attrCount %d in an empty section accepted", count)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("attrCount %d: parse allocated %d B before failing, want < 1 MiB", count, alloc)
		}
	}
}

// FuzzParseCSR feeds arbitrary bytes to the CSR parser: it must return an
// error or a view whose neighbor lists and attribute tables all lie inside
// the file, never panic or allocate by an unchecked header field.
func FuzzParseCSR(f *testing.F) {
	var buf bytes.Buffer
	g := csrTestGraph(f)
	attrs := map[string][]float64{"deg": make([]float64, g.NumNodes()), "x": make([]float64, g.NumNodes())}
	if err := WriteCSR(&buf, g, attrs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeAttrCountCSR(f, 1<<26))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh heap copy keeps the typed views 8-byte aligned, as a
		// mapped or read file is.
		data = append([]byte(nil), data...)
		m, err := parseCSR(data)
		if err != nil {
			return
		}
		n := m.view.NumNodes()
		degrees := 0
		for v := 0; v < n; v++ {
			degrees += len(m.view.Neighbors(v))
		}
		if degrees != len(m.view.adj) {
			t.Fatalf("degrees sum to %d, adjacency holds %d", degrees, len(m.view.adj))
		}
		if len(m.attrs) > len(m.attrNames) {
			t.Fatalf("%d attribute tables, %d names", len(m.attrs), len(m.attrNames))
		}
		for name, vals := range m.attrs {
			if len(vals) != n {
				t.Fatalf("attribute %q has %d values for %d nodes", name, len(vals), n)
			}
		}
	})
}
