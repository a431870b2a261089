package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// against the metric lists compiled into the benchmark.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(want), len(got))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the benchmark reports %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, bf.EndToEnd)
	check("per_layer", layerMetrics, bf.PerLayer)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that every metric prints with its unit and every check passes;
// then it plants a wrong output pin and checks that the run reports a
// failure in its result line instead of crashing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	pins := filepath.Join(dir, "pins.json")
	outDir := filepath.Join(dir, "out")
	common := []string{"-scale", "tiny", "-root", "..", "-out", outDir, "-pins", pins}
	if out, err := exec.Command(bin, append([]string{"-record-pins", "1-2"}, common...)...).CombinedOutput(); err != nil {
		t.Fatalf("record pins: %v\n%s", err, out)
	}

	run := func(w string, seed, trace string) result {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-workload", w, "-seed", seed, "-seconds", "1", "-trace", trace}, common...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s trace %s: %v\n%s", w, trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace %s: last line is not a result: %v", w, trace, err)
		}
		if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
			t.Errorf("%s trace %s: attempted %d failed %d", w, trace, res.Attempted, res.Failed)
		}
		defs := e2eMetrics
		if trace == "1" {
			defs = layerMetrics
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, d.name, v, d.unit)
			}
		}
		if !res.Correct {
			t.Logf("%s trace %s stderr:\n%s", w, trace, stderr.String())
		}
		return res
	}

	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			// Seed 2 is pinned too but is not the default seed: the
			// traced run's Workers=1 repeat is checked there as well.
			for _, seed := range []string{"1", "2"} {
				if res := run(w.name, seed, trace); !res.Correct || res.Failed != 0 {
					t.Errorf("%s seed %s trace %s: correct=%v failed=%d, want a clean run", w.name, seed, trace, res.Correct, res.Failed)
				}
			}
		}
	}

	// Plant a wrong pin in every workload: each run must count failures
	// and still print its result line.
	p, err := loadPins(pins)
	if err != nil {
		t.Fatal(err)
	}
	for _, byWorkload := range p["tiny"] {
		// The smallest name is an output of input 0 ("g0.…") or, for
		// serve-mix, a request line every deck sends.
		var first string
		for k := range byWorkload["1"] {
			if first == "" || k < first {
				first = k
			}
		}
		byWorkload["1"][first] = "wrong"
	}
	b, _ := json.Marshal(p)
	if err := os.WriteFile(pins, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if res := run(w.name, "1", "0"); res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong pin: correct=%v failed=%d, want a reported failure", w.name, res.Correct, res.Failed)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", median([]float64{1, 2, 3, 4}))
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := newTracer()
	tr.add("root", 0, 1, 0, 10)
	tr.add("req", 1, 1, 1, 4) // overlapping children cover [1,6] and [7,8]: 6 of 10
	tr.add("req", 1, 2, 2, 6)
	tr.add("req", 1, 3, 7, 8)
	self := tr.selfTimes()
	if got := self["root"]; got < 4-1e-9 || got > 4+1e-9 {
		t.Errorf("root self time %v, want 4", got)
	}
	if got := self["req"]; got < 8-1e-9 || got > 8+1e-9 {
		t.Errorf("req self time %v, want 8", got)
	}
}

func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	a := record{Workload: "thm11-regular", Scale: "full", Host: host{NumCPU: 2}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host shape refused: %v", err)
	}
	b.Host.NumCPU = 4
	if err := comparable(a, b); err == nil {
		t.Fatal("records from hosts with 2 and 4 CPUs were compared")
	}
}
