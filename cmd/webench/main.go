// Command webench is the repository's end-to-end benchmark. It drives the
// sampling library, the single daemon and the coordinator/worker fleet
// through five fixed workloads, checks every output, and prints each metric
// by name and unit: the end-to-end metrics on an untraced run, the per-layer
// metrics (plus the tracing overhead) with --trace 1. See README.md.
//
// Usage, from the repository root:
//
//	bash cmd/webench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// With --workload all (the default) each workload runs in a child process of
// its own, so heap, RSS and GC state do not carry from one into the next.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a record
// with provenance, the output digest and diagnostics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the diagnostic line printed before the result.
type record struct {
	Provenance   provenance `json:"provenance"`
	OutputDigest string     `json:"output_digest"`
	Jobs         int64      `json:"jobs"`
	Samples      int64      `json:"samples"`
	JobP99MS     float64    `json:"job_p99_ms"`
	SetupS       []float64  `json:"setup_s_runs"`
	GenLateP99MS float64    `json:"gen_late_p99_ms"`
	Valid        bool       `json:"valid"`
	Notes        []string   `json:"notes,omitempty"`
	// HostSlowdown is the host's speed over the window relative to the
	// reference (hostProbe); Raw holds the end-to-end metrics as measured,
	// before they were brought to the reference speed.
	HostSlowdown  float64            `json:"host_slowdown"`
	Raw           map[string]float64 `json:"raw"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`
	SpansDropped  int64              `json:"spans_dropped,omitempty"`
}

// maxGenLateMS is the open-loop generator lateness (p99) above which a run
// is marked invalid: the offered schedule was not kept.
const maxGenLateMS = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("webench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for the graph and every job list")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1: also run traced and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file for --trace 1 (default .bench_build/webench-trace-WORKLOAD.jsonl)")
	commit := fs.String("commit", "unknown", "commit being measured, for provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "webench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *commit, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "webench: unknown workload %q\n", *name)
		return 2
	}
	out := *traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "webench-trace-"+w.name+".jsonl")
	}
	prov := newProvenance(w.name, *seed, *seconds, *trace == 1, *commit)
	res, rec, err := runWorkload(w, fullScale(*seed, *seconds), *trace == 1, out, prov)
	if err != nil {
		fmt.Fprintf(stderr, "webench: %v\n", err)
		return 1
	}
	printResult(stdout, res, rec, *trace == 1)
	if !res.Correct {
		fmt.Fprintf(stderr, "webench: %s: output verification failed: %v\n", w.name, rec.Notes)
		return 1
	}
	return 0
}

// runWorkload measures one workload untraced and, when traceOn, again traced.
func runWorkload(w workload, p params, traceOn bool, traceOut string, prov provenance) (result, record, error) {
	un, fx, err := runPhase(w, p, nil)
	if err != nil {
		return result{}, record{}, err
	}
	cpuRatio := 0.0
	if traceOn && w.name == "lib-mem-par2" {
		// The same job prefix through the sequential path, untraced, for the
		// parallel pipeline's CPU cost per sample relative to it.
		seq := libLoop(fx, p, memSeq, nil, int(un.attempted), nil)
		cpuRatio = ratio(ms(un.cpu())/float64(un.samples), ms(seq.cpu())/float64(seq.samples))
	}
	fx.close()

	e2e := un.endToEnd(un.slowdown)
	jobs, _ := un.latencies(un.slowdown)
	res := result{Correct: un.wrong == 0, Attempted: un.attempted, Failed: un.failed,
		Metrics: make(map[string]metricValue)}
	rec := record{
		Provenance:   prov,
		OutputDigest: fmt.Sprintf("%016x", outputDigest(un.hashes)),
		Jobs:         un.attempted,
		Samples:      un.samples,
		JobP99MS:     percentile(jobs, 99),
		SetupS:       un.setupS,
		GenLateP99MS: percentile(un.lateMS, 99),
		Notes:        un.notes,
		HostSlowdown: un.slowdown,
		Raw:          un.endToEnd(1),
	}
	rec.Valid = rec.GenLateP99MS <= maxGenLateMS
	if !traceOn {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, rec, nil
	}

	tr := newTracer()
	tp, tfx, err := runPhase(w, p, tr)
	if err != nil {
		return result{}, record{}, err
	}
	tfx.close()
	tp.layers["core.parallel.cpu_ratio_vs_seq"] = cpuRatio
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{tp.layers[d.name], d.unit}
	}
	res.Correct = res.Correct && tp.wrong == 0
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	rec.Notes = append(rec.Notes, tp.notes...)
	if d := fmt.Sprintf("%016x", outputDigest(tp.hashes)); d != rec.OutputDigest {
		res.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("traced output digest %s differs from untraced %s", d, rec.OutputDigest))
	}
	traced := tp.endToEnd(tp.slowdown)
	rec.TraceOverhead = make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		rec.TraceOverhead[d.name] = traced[d.name] - e2e[d.name]
	}
	if err := tr.write(traceOut); err != nil {
		return result{}, record{}, err
	}
	rec.TraceFile, rec.SpansDropped = traceOut, tr.dropped
	return res, rec, nil
}

// printResult writes a readable table, the record line, and the result as
// the last line.
func printResult(w io.Writer, res result, rec record, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d nproc=%d GOMAXPROCS=%d %s\n", rec.Provenance.Workload,
		rec.Provenance.Seed, rec.Provenance.NProc, rec.Provenance.GOMAXPROCS, rec.Provenance.GoVersion)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	recLine, _ := json.Marshal(map[string]record{"record": rec})
	resLine, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n%s\n", recLine, resLine)
}

// runAll runs every workload in a child process of its own and ends with one
// line mapping each workload to its result.
func runAll(seed int64, seconds float64, trace int, commit string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "webench: %v\n", err)
		return 1
	}
	code := 0
	all := make(map[string]json.RawMessage, len(workloads))
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--commit", commit)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "webench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		all[w.name] = json.RawMessage(lastLine(out.Bytes()))
	}
	line, _ := json.Marshal(map[string]any{"workloads": all})
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}
