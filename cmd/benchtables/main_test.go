package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestParseWorkloadName pins the sized-workload name reader against
// both generations of records: the dashed names new sweeps emit and the
// glued kind+size tokens older BENCH files carry.
func TestParseWorkloadName(t *testing.T) {
	cases := []struct {
		name  string
		group string
		kind  string
		n     int
		ok    bool
	}{
		{"scale-color/grid-100000", "scale-color", "grid", 100000, true},
		{"scale-build/gnp4-1000000", "scale-build", "gnp4", 1000000, true},
		{"scale-build/gnp41000000", "scale-build", "gnp4", 1000000, true},
		{"scale-round/chunglu100000", "scale-round", "chunglu", 100000, true},
		{"store-serve8/grid-100000", "store-serve8", "grid", 100000, true},
		{"color/gnp-sparse", "", "", 0, false},
		{"barrier/regular4", "barrier", "regular", 4, true},
		{"clique-flood/512", "", "", 0, false},
		{"noslash", "", "", 0, false},
	}
	for _, c := range cases {
		group, kind, n, ok := parseWorkloadName(c.name)
		if group != c.group || kind != c.kind || n != c.n || ok != c.ok {
			t.Errorf("parseWorkloadName(%q) = (%q, %q, %d, %v), want (%q, %q, %d, %v)",
				c.name, group, kind, n, ok, c.group, c.kind, c.n, c.ok)
		}
	}
	if got := workloadName("scale-color", "grid", 100000); got != "scale-color/grid-100000" {
		t.Errorf("workloadName = %q", got)
	}
}

// TestCliqueMPCWorkloadNamesUnique checks, without running anything,
// that every workload of the -clique and -mpc sweeps records under its
// own name in both the full and the quick configuration: two
// configurations sharing a name would overwrite each other's numbers in
// a BENCH record.
func TestCliqueMPCWorkloadNamesUnique(t *testing.T) {
	for _, quick := range []bool{false, true} {
		flood, clq := cliqueConfs(quick)
		sorts, mpcs := mpcConfs(quick)
		modes := map[string][]string{}
		for _, n := range flood {
			modes["clique"] = append(modes["clique"], fmt.Sprintf("clique-flood/%d", n))
		}
		for _, c := range clq {
			modes["clique"] = append(modes["clique"], c.name("clique-color"))
		}
		for _, n := range sorts {
			modes["mpc"] = append(modes["mpc"], fmt.Sprintf("mpc-sort/%d", n))
		}
		for _, c := range mpcs {
			modes["mpc"] = append(modes["mpc"], c.name("mpc-color"))
		}
		for _, mode := range []string{"clique", "mpc"} {
			seen := map[string]bool{}
			for _, name := range modes[mode] {
				if seen[name] {
					t.Errorf("quick=%v: %s sweep records %q twice", quick, mode, name)
				}
				seen[name] = true
			}
		}
	}
	if got := (colorConf{n: 96, d: 4}).name("mpc-color"); got != "mpc-color/regular4-96" {
		t.Errorf("colorConf name = %q", got)
	}
}

// TestBenchtablesRecordsMPC drives the binary end to end in its quick
// recorder mode: it must produce a valid BENCH-schema JSON file. One
// invocation only — benchtables registers its -quick flag at package
// init, so the process-global flag set cannot be rebuilt.
func TestBenchtablesRecordsMPC(t *testing.T) {
	if testing.Short() {
		t.Skip("benchtables smoke test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	os.Args = []string{"benchtables", "-mpc", "-quick", "-label", "smoke", "-o", out}
	main()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("recorded file is not valid JSON: %v", err)
	}
	if file.Schema != "smallbandwidth/bench-mpc/v1" {
		t.Errorf("schema = %q", file.Schema)
	}
	rec, ok := file.Engines["smoke"]
	if !ok || len(rec.Workloads) == 0 {
		t.Fatalf("label %q missing or empty: %+v", "smoke", file.Engines)
	}
	for _, w := range rec.Workloads {
		if w.WallNS <= 0 || w.Rounds <= 0 {
			t.Errorf("workload %s recorded no measurements: %+v", w.Name, w)
		}
	}
}
