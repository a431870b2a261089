// Command perfbench is the repository benchmark. It runs one workload
// for a fixed measuring time, each repetition in a fresh process, checks
// every output (proper colorings, output pins, bit-identity across
// repetitions and worker counts), and prints one JSON result line:
//
//	perfbench -workload thm11-regular -seed 1 -seconds 30 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 makes one untraced
// and one traced run and reports the per-layer metrics. See README.md
// for the workloads and the metric map, and run.sh for the build.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the output pins were first recorded at.
const defaultSeed = 1

const (
	minReps = 3 // repetitions made even past the measuring time, for a median
	maxReps = 200
	// hardLimit bounds a whole invocation; every child is killed by then.
	hardLimit = 165 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	scale    string
	root     string
	out      string
	pins     string
	child    string
	input    int
	record   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the programs under test receive only the inputs generated from it")
	fs.IntVar(&o.seconds, "seconds", 10, "measuring time: repetitions start while they are expected to end within it")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full, or tiny for the smoke test")
	fs.StringVar(&o.root, "root", ".", "repository checkout holding perfbench/")
	fs.StringVar(&o.out, "out", "", "directory for scratch files, traces and result records (default <root>/.bench_build/perfbench)")
	fs.StringVar(&o.pins, "pins", "", "output pins file (default <root>/perfbench/pins.json)")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition (rep) or one traced run (traced) in this process")
	fs.IntVar(&o.input, "input", 0, "internal: the input of the seed's set that a repetition runs on")
	fs.StringVar(&o.record, "record-pins", "", "record the output pins of seeds FIRST-LAST (of -workload, or of every workload) into the pins file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "perfbench")
	}
	if o.pins == "" {
		o.pins = filepath.Join(o.root, "perfbench", "pins.json")
	}
	sz, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -scale %q (full or tiny)\n", o.scale)
		return 2
	}
	if o.record != "" {
		return recordPins(o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", o.trace)
		return 2
	}
	if o.child != "" {
		return childMain(o, w, sz)
	}
	if o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be at least 1, got %d\n", o.seconds)
		return 2
	}
	return parentMain(o, w)
}

// ---- child: one repetition in this process.

func childMain(o options, w workload, sz sizes) int {
	tmp := filepath.Join(o.out, "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	var r *repResult
	switch o.child {
	case "rep":
		if o.input < 0 || o.input >= w.inputs {
			fmt.Fprintf(os.Stderr, "perfbench: -input %d outside 0..%d\n", o.input, w.inputs-1)
			return 2
		}
		r = w.rep(sz, o.seed, o.input, tmp)
	case "traced":
		tr := newTracer()
		r = w.traced(sz, o.seed, tmp, tr)
		if err := writeTrace(o, tr); err != nil {
			r.Attempted++
			r.fail("%v", err)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child %q\n", o.child)
		return 2
	}
	r.PeakRSSMB = peakRSSMB()
	enc, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(enc))
	return 0
}

// writeTrace writes the traced run's spans and self times to
// <out>/traces/<workload>-seed<seed>.json and prints the self-time
// table to standard error.
func writeTrace(o options, tr *tracer) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	var buf bytes.Buffer
	if err := tr.write(&buf, map[string]any{"workload": o.workload, "seed": o.seed, "scale": o.scale, "host": hostInfo()}); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	self := tr.selfTimes()
	var spanNames []string
	for name := range self {
		spanNames = append(spanNames, name)
	}
	slices.Sort(spanNames)
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s; self time per span:\n", path)
	for _, name := range spanNames {
		fmt.Fprintf(os.Stderr, "  %-28s %10.4f s\n", name, self[name])
	}
	return nil
}

// spawn runs one repetition in a fresh process and decodes its record.
func spawn(ctx context.Context, o options, mode string, input int) (*repResult, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-input", strconv.Itoa(input), "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-scale", o.scale, "-root", o.root, "-out", o.out)
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return nil, wall, fmt.Errorf("%s process: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, wall, fmt.Errorf("%s process printed no record: %w", mode, err)
	}
	return &r, wall, nil
}

// ---- parent: repetitions, checks, aggregation, the result line.

// tally counts checked operations and failures over a whole invocation,
// and the first-seen outputs that later repetitions must reproduce.
// Outputs are named values: "g<i>.hash" and the like for the Color*
// workloads, the request line (with the reply as value) for serve-mix.
type tally struct {
	attempted, failed int
	problems          []string
	pin               map[string]string // pinned outputs for this seed, if recorded
	seen              map[string]string // first value seen per output
}

func (t *tally) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// crashed counts a repetition whose process failed or printed nothing.
func (t *tally) crashed(err error) {
	t.attempted++
	t.problem("%v", err)
}

// add checks one repetition's record: its own failed checks, then its
// outputs (one failure at most per Color* run) and each served reply
// (one failure per request) against the pins and against earlier
// repetitions.
func (t *tally) add(r *repResult) {
	t.attempted += r.Attempted
	for _, e := range r.Errors {
		t.problem("%s", e)
	}
	if r.Outputs != nil && len(r.Errors) == 0 {
		if bad := t.check(r.Outputs); bad != "" {
			t.problem("%s", bad)
		}
	}
	for _, q := range r.Requests {
		t.attempted++
		if !strings.HasPrefix(q.Reply, "ok ") {
			t.problem("request %q: %s", q.Line, q.Reply)
		} else if bad := t.check(map[string]string{q.Line: q.Reply}); bad != "" {
			t.problem("%s", bad)
		}
	}
}

// check compares outputs with the pins, when this seed has pins, and
// with the first value seen for each output; it describes the first
// mismatch, or returns "".
func (t *tally) check(outputs map[string]string) string {
	var names []string
	for k := range outputs {
		names = append(names, k)
	}
	slices.Sort(names)
	bad := ""
	for _, k := range names {
		v := outputs[k]
		if t.pin != nil {
			if want, ok := t.pin[k]; !ok {
				bad = fmt.Sprintf("output %q = %q has no pin", k, v)
			} else if v != want {
				bad = fmt.Sprintf("output %q = %q differs from the pin %q", k, v, want)
			}
		}
		if prev, ok := t.seen[k]; !ok {
			t.seen[k] = v
		} else if v != prev && bad == "" {
			bad = fmt.Sprintf("output %q = %q differs from the earlier %q", k, v, prev)
		}
		if bad != "" {
			return bad
		}
	}
	return ""
}

func parentMain(o options, w workload) int {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	pins, err := loadPins(o.pins)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	t := &tally{pin: pins[o.scale][w.name][strconv.FormatUint(o.seed, 10)], seen: map[string]string{}}
	if t.pin == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no output pins for %s seed %d at scale %s; repetitions are checked against each other only\n", w.name, o.seed, o.scale)
	}

	var metrics map[string]float64
	var samples map[string][]float64
	if o.trace == 0 {
		var reps []*repResult
		var walls []float64
		deadline := start.Add(time.Duration(o.seconds) * time.Second)
		for len(reps) < maxReps && ctx.Err() == nil {
			if n := len(walls); n >= minReps && time.Now().Add(time.Duration(median(walls)*float64(time.Second))).After(deadline) {
				break
			}
			r, wall, err := spawn(ctx, o, "rep", len(walls)%w.inputs)
			walls = append(walls, wall.Seconds())
			if err != nil {
				t.crashed(err)
				if len(walls) >= minReps && len(reps) == 0 {
					break // every repetition so far crashed: no point in more
				}
				continue
			}
			t.add(r)
			reps = append(reps, r)
		}
		metrics, samples = endToEnd(reps)
	} else {
		plain, _, err := spawn(ctx, o, "rep", 0)
		if err != nil {
			t.crashed(err)
		} else {
			t.add(plain)
		}
		traced, _, err := spawn(ctx, o, "traced", 0)
		if err != nil {
			t.crashed(err)
		} else {
			t.add(traced)
			metrics = traced.Metrics
			if metrics == nil {
				metrics = map[string]float64{}
			}
			if plain != nil {
				metrics["trace.overhead_s"] = traced.RunS - plain.RunS
			}
		}
		if metrics != nil {
			for _, d := range layerMetrics {
				if _, ok := metrics[d.name]; !ok {
					t.attempted++
					t.problem("traced run produced no %s", d.name)
				}
			}
		}
	}
	defs := e2eMetrics
	if o.trace == 1 {
		defs = layerMetrics
	}
	t.attempted = max(t.attempted, 1)
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	report(o, w, res, samples, t)
	if err := writeRecord(o, res, samples); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd aggregates the repetitions: medians over repetitions of
// setup, run time and peak RSS; throughput as the median per-repetition
// rate; latency percentiles over every request of every repetition
// (on thm11-regular and cor12-grid-ckpt a request is one Color* run).
func endToEnd(reps []*repResult) (map[string]float64, map[string][]float64) {
	s := map[string][]float64{}
	for _, r := range reps {
		s["setup_s"] = append(s["setup_s"], r.SetupS)
		s["run_s"] = append(s["run_s"], r.RunS)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], r.PeakRSSMB)
		if r.RunS <= 0 {
			continue
		}
		if r.Requests == nil {
			s["req_per_s"] = append(s["req_per_s"], 1/r.RunS)
			s["latency_ms"] = append(s["latency_ms"], r.RunS*1000)
			continue
		}
		s["req_per_s"] = append(s["req_per_s"], float64(len(r.Requests))/r.RunS)
		for _, q := range r.Requests {
			s["latency_ms"] = append(s["latency_ms"], q.Ms)
		}
	}
	m := map[string]float64{}
	for _, k := range []string{"setup_s", "run_s", "peak_rss_mb", "req_per_s"} {
		m[k] = median(s[k])
	}
	m["req_p50_ms"] = percentile(s["latency_ms"], 50)
	m["req_p90_ms"] = percentile(s["latency_ms"], 90)
	return m, s
}

// report prints the human-readable summary to standard error: every
// metric by name with its unit, the sample counts, fail_ratio and the
// host.
func report(o options, w workload, res result, samples map[string][]float64, t *tally) {
	h := hostInfo()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d scale=%s trace=%d num_cpu=%d gomaxprocs=%d %s\n",
		w.name, o.seed, o.scale, o.trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if samples != nil {
		fmt.Fprintf(os.Stderr, "  repetitions=%d (one process each)  latency samples=%d\n", len(samples["run_s"]), len(samples["latency_ms"]))
	}
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-28s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", p)
	}
}

// ---- host record and comparison.

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// record is a result with its provenance, kept for later comparison.
type record struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Scale    string               `json:"scale"`
	Trace    int                  `json:"trace"`
	Host     host                 `json:"host"`
	Result   result               `json:"result"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
}

// writeRecord keeps the result with the host it was measured on under
// <out>/results/<workload>-seed<seed>-trace<t>.json.
func writeRecord(o options, res result, samples map[string][]float64) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{Workload: o.workload, Seed: o.seed, Scale: o.scale, Trace: o.trace, Host: hostInfo(), Result: res, Samples: samples}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareMain prints the metric-by-metric ratio of two result records.
// It refuses records measured on hosts with different CPU counts: such
// a pair says nothing about the code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if err := comparable(a, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: refused: %v\n", err)
		return 2
	}
	var names []string
	for name := range a.Result.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Printf("%-28s %14s %14s %8s\n", "metric", "old", "new", "new/old")
	for _, name := range names {
		va, vb := a.Result.Metrics[name], b.Result.Metrics[name]
		ratio := "-"
		if va.Value != 0 {
			ratio = fmt.Sprintf("%.3f", vb.Value/va.Value)
		}
		fmt.Printf("%-28s %14.6g %14.6g %8s %s\n", name, va.Value, vb.Value, ratio, va.Unit)
	}
	return 0
}

// comparable refuses pairs measured on different CPU counts or for
// different workloads, scales or metric sets.
func comparable(a, b record) error {
	switch {
	case a.Host.NumCPU != b.Host.NumCPU:
		return fmt.Errorf("num_cpu differs (%d vs %d)", a.Host.NumCPU, b.Host.NumCPU)
	case a.Workload != b.Workload || a.Scale != b.Scale || a.Trace != b.Trace:
		return fmt.Errorf("different runs (%s/%s/trace%d vs %s/%s/trace%d)", a.Workload, a.Scale, a.Trace, b.Workload, b.Scale, b.Trace)
	}
	return nil
}

// ---- output pins.

// pinFile maps scale → workload → seed → output name → value. For the
// Color* workloads the outputs are the colour hash, the number of
// colours, the rounds (charged rounds for Corollary 1.2) and the
// messages; for serve-mix they are the reply to every request line.
type pinFile map[string]map[string]map[string]map[string]string

func loadPins(path string) (pinFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parse pins %s: %w", path, err)
	}
	return p, nil
}

// recordPins runs one repetition per workload, seed and input and
// stores the outputs as pins. Replies that differ between repetitions of the same
// request line are an error: there is nothing consistent to pin.
func recordPins(o options) int {
	first, last, err := parseSeedRange(o.record)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -record-pins: %v\n", err)
		return 2
	}
	pins, err := loadPins(o.pins)
	if errors.Is(err, os.ErrNotExist) {
		pins, err = pinFile{}, nil
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if pins[o.scale] == nil {
		pins[o.scale] = map[string]map[string]map[string]string{}
	}
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		if pins[o.scale][w.name] == nil {
			pins[o.scale][w.name] = map[string]map[string]string{}
		}
		for seed := first; seed <= last; seed++ {
			wo := o
			wo.workload, wo.seed = w.name, seed
			outputs := map[string]string{}
			for input := 0; input < w.pinInputs; input++ {
				r, _, err := spawn(context.Background(), wo, "rep", input)
				if err == nil && len(r.Errors) > 0 {
					err = errors.New(strings.Join(r.Errors, "; "))
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				for k, v := range r.Outputs {
					outputs[k] = v
				}
				for _, q := range r.Requests {
					if prev, ok := outputs[q.Line]; (ok && prev != q.Reply) || !strings.HasPrefix(q.Reply, "ok ") {
						fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: request %q: %q\n", w.name, seed, q.Line, q.Reply)
						return 2
					}
					outputs[q.Line] = q.Reply
				}
			}
			pins[o.scale][w.name][strconv.FormatUint(seed, 10)] = outputs
			fmt.Fprintf(os.Stderr, "perfbench: pinned %s seed %d\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(pins, "", " ")
	if err == nil {
		err = os.WriteFile(o.pins, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write pins: %v\n", err)
		return 2
	}
	return 0
}

func parseSeedRange(s string) (first, last uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if first, err = strconv.ParseUint(a, 10, 64); err == nil {
		last, err = strconv.ParseUint(b, 10, 64)
	}
	if err == nil && last < first {
		err = fmt.Errorf("empty range %s", s)
	}
	return first, last, err
}
