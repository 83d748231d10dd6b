package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
)

// Caps on the spans kept in memory; later spans are counted as dropped.
// Backend calls outnumber every other span by orders of magnitude (a mem job
// makes thousands), so they get a cap of their own and only the first ones
// are kept, while job-level spans are kept for the whole window. The counters
// behind the per-layer metrics see every call regardless.
const (
	maxBackendSpans = 1 << 17
	maxSpans        = 1 << 20
	backendSpan     = "osn.backend.call"
)

// span is one timed interval at a layer boundary. Job identifies the request
// a span belongs to (its index in the workload's job list; -1 for set-up),
// so a job's spans can be grouped even where parents are approximate.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's own side of each layer boundary:
// around library jobs, around every backend access (timingBackend), around
// the crawl-table build, and around each HTTP call into the daemon or the
// coordinator. The program itself is not instrumented.
type tracer struct {
	epoch  time.Time
	calls  atomic.Int64 // backend calls
	elems  atomic.Int64 // nodes requested across those calls
	waitNS atomic.Int64 // time spent inside backend calls

	mu          sync.Mutex
	spans       []span
	backendKept int
	dropped     int64
	nextID      int64
}

// jobScope is one library caller's open lib.job span: the backend calls its
// network makes while the span is open are the span's children, and their
// intervals feed its self time. Each caller gets a network of its own whose
// timingBackend carries the caller's scope, which is how a backend call is
// attributed to a job. Fields are guarded by the tracer's mutex.
type jobScope struct {
	id, job, start int64
	ivs            []interval
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(parent, job int64, name string, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, job, name, start, end)
}

func (t *tracer) addLocked(parent, job int64, name string, start, end int64) int64 {
	t.nextID++
	t.keepLocked(span{ID: t.nextID, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return t.nextID
}

func (t *tracer) keepLocked(s span) {
	backend := s.Name == backendSpan
	if len(t.spans) >= maxSpans || backend && t.backendKept >= maxBackendSpans {
		t.dropped++
		return
	}
	if backend {
		t.backendKept++
	}
	t.spans = append(t.spans, s)
}

// restart drops the spans recorded so far: a run sets up several times and
// keeps the last set-up, so the trace starts with that one.
func (t *tracer) restart() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.backendKept, t.dropped = t.spans[:0], 0, 0
}

// backendCall records one backend access of n nodes that began at start,
// as a child of the scope's open job when there is one.
func (t *tracer) backendCall(sc *jobScope, start int64, n int) {
	end := t.now()
	t.calls.Add(1)
	t.elems.Add(int64(n))
	t.waitNS.Add(end - start)
	t.mu.Lock()
	parent, job := int64(0), int64(-1)
	if sc != nil && sc.id != 0 {
		sc.ivs = append(sc.ivs, interval{start, end})
		parent, job = sc.id, sc.job
	}
	t.addLocked(parent, job, backendSpan, start, end)
	t.mu.Unlock()
}

// beginJob opens a lib.job span for job index job in sc.
func (t *tracer) beginJob(sc *jobScope, job int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sc.id, sc.job, sc.start = t.nextID, job, t.now()
	sc.ivs = sc.ivs[:0]
}

// endJob closes sc's lib.job span and returns its self time: its duration
// minus the time its backend calls cover.
func (t *tracer) endJob(sc *jobScope) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTime(sc.start, end, sc.ivs)
	t.keepLocked(span{ID: sc.id, Job: sc.job, Name: "lib.job", Start: sc.start, End: end})
	sc.id = 0
	return time.Duration(self)
}

// resetCounters zeroes the backend counters at the start of a measured
// window, so set-up traffic (crawl build, warm-up jobs) is not charged to it.
func (t *tracer) resetCounters() {
	t.calls.Store(0)
	t.elems.Store(0)
	t.waitNS.Store(0)
}

// write stores the spans as JSON lines at path. Backend spans recorded
// outside a lib.job (the daemon and fleet workloads, where the benchmark
// cannot see which job made a call) are parented to a serve.run span that
// contains them; with several runners that choice is ambiguous, and the
// earliest-starting containing run wins.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var runs []span
	for _, s := range t.spans {
		if s.Name == "serve.run" {
			runs = append(runs, s)
		}
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].Start < runs[b].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != backendSpan || s.Parent != 0 {
			continue
		}
		k := sort.Search(len(runs), func(j int) bool { return runs[j].Start > s.Start })
		for j := k - 1; j >= 0 && j >= k-8; j-- {
			if runs[j].End >= s.End {
				s.Parent, s.Job = runs[j].ID, runs[j].Job
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// timingBackend wraps an osn.Backend and records every access as an
// osn.backend.call span. It forwards Inner and GraphView, so the network's
// ConcurrentBatch detection and serve.Engine's discovery of a RemoteSim see
// through it: the wrapper changes timing only, never what is served.
type timingBackend struct {
	inner osn.Backend
	tr    *tracer
	sc    *jobScope // the library caller this network serves; nil for a service
}

func (b *timingBackend) NumNodes() int { return b.inner.NumNodes() }

func (b *timingBackend) NumEdges() int { return b.inner.NumEdges() }

func (b *timingBackend) Degree(v int) int {
	s := b.tr.now()
	d := b.inner.Degree(v)
	b.tr.backendCall(b.sc, s, 1)
	return d
}

func (b *timingBackend) Neighbors(v int) []int32 {
	s := b.tr.now()
	out := b.inner.Neighbors(v)
	b.tr.backendCall(b.sc, s, 1)
	return out
}

func (b *timingBackend) NeighborsBatch(vs []int32, out [][]int32) {
	s := b.tr.now()
	b.inner.NeighborsBatch(vs, out)
	b.tr.backendCall(b.sc, s, len(vs))
}

func (b *timingBackend) Attr(name string, v int) (float64, bool) {
	s := b.tr.now()
	val, ok := b.inner.Attr(name, v)
	b.tr.backendCall(b.sc, s, 1)
	return val, ok
}

func (b *timingBackend) AttrNames() []string { return b.inner.AttrNames() }

func (b *timingBackend) Inner() osn.Backend { return b.inner }

func (b *timingBackend) GraphView() *graph.Graph {
	if gv, ok := b.inner.(osn.GraphViewer); ok {
		return gv.GraphView()
	}
	return nil
}

// wrap returns be behind a timing wrapper whose calls belong to sc (nil: to
// no job), or be itself when not tracing.
func (t *tracer) wrap(be osn.Backend, sc *jobScope) osn.Backend {
	if t == nil {
		return be
	}
	return &timingBackend{inner: be, tr: t, sc: sc}
}
