package core

import (
	"math"
	"testing"

	"smallbandwidth/internal/graph"
)

// compareRuns requires two full pipeline results to agree everywhere the
// derandomization is observable: colors, stats (including the traffic
// the bulk path charges instead of sending), iteration count, and every
// tracked potential, bit for bit.
func compareRuns(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if got.Stats != ref.Stats {
		t.Errorf("%s: stats differ: got %+v, ref %+v", name, got.Stats, ref.Stats)
	}
	if got.Iterations != ref.Iterations {
		t.Errorf("%s: iterations differ: %d vs %d", name, got.Iterations, ref.Iterations)
	}
	for v := range ref.Colors {
		if got.Colors[v] != ref.Colors[v] {
			t.Errorf("%s: node %d color differs: %d vs %d", name, v, got.Colors[v], ref.Colors[v])
			return
		}
	}
	if len(got.PotentialStart) != len(ref.PotentialStart) {
		t.Errorf("%s: potential records differ in length", name)
		return
	}
	for it := range ref.PotentialStart {
		if math.Float64bits(got.PotentialStart[it]) != math.Float64bits(ref.PotentialStart[it]) {
			t.Errorf("%s: iteration %d PotentialStart %v vs ref %v",
				name, it, got.PotentialStart[it], ref.PotentialStart[it])
			return
		}
		for l := range ref.PotentialPhase[it] {
			if math.Float64bits(got.PotentialPhase[it][l]) != math.Float64bits(ref.PotentialPhase[it][l]) {
				t.Errorf("%s: iteration %d phase %d potential %v vs ref %v",
					name, it, l+1, got.PotentialPhase[it][l], ref.PotentialPhase[it][l])
				return
			}
		}
	}
}

// TestPhaseBlockOwnedEdgeSweep sweeps the batched evaluation across the
// owned-edge counts that straddle its block boundaries — 0 owned edges
// (no sheets at all), 1, one lane shy of typical sheet capacity, at it,
// and past it (63, 64, 65 force single- and multi-sheet layouts) — and
// pins the three evaluation paths against each other on each: the
// reference path (refEval), the per-node batched path with real tree
// aggregations (noBulk), and the default bulk path. A star's center owns
// every edge (it carries the smallest ID), so the star's leaf count is
// exactly the center's owned-edge count.
func TestPhaseBlockOwnedEdgeSweep(t *testing.T) {
	for _, leaves := range []int{0, 1, 63, 64, 65} {
		g := graph.Star(leaves + 1)
		inst := graph.DeltaPlusOneInstance(g)
		ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
		if err != nil {
			t.Fatalf("leaves=%d ref: %v", leaves, err)
		}
		noBulk, err := ListColorCONGEST(inst, Options{TrackPotentials: true, noBulk: true})
		if err != nil {
			t.Fatalf("leaves=%d noBulk: %v", leaves, err)
		}
		bulk, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
		if err != nil {
			t.Fatalf("leaves=%d bulk: %v", leaves, err)
		}
		name := func(s string) string { return s + "/" + itoa(leaves) }
		compareRuns(t, name("noBulk"), ref, noBulk)
		compareRuns(t, name("bulk"), ref, bulk)
		if err := inst.VerifyColoring(bulk.Colors); err != nil {
			t.Errorf("leaves=%d: improper coloring: %v", leaves, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestPhaseBlockWorkersSweep runs the per-node batched path (noBulk,
// so the D tree aggregations really cross the delivery shards) and the
// bulk path at several worker counts on a multi-component graph and
// pins every result against the single-worker reference path — the
// batched evaluation must be scheduling-independent like everything
// else in the engine.
func TestPhaseBlockWorkersSweep(t *testing.T) {
	g := graph.GNP(80, 0.08, 17)
	inst := graph.DeltaPlusOneInstance(g)
	ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, noBulk := range []bool{false, true} {
			opts := Options{TrackPotentials: true, Workers: workers, noBulk: noBulk}
			got, err := ListColorCONGEST(inst, opts)
			if err != nil {
				t.Fatalf("workers=%d noBulk=%v: %v", workers, noBulk, err)
			}
			name := "bulk"
			if noBulk {
				name = "noBulk"
			}
			compareRuns(t, name+"/workers="+itoa(workers), ref, got)
		}
	}
}

// FuzzPhaseBlock feeds arbitrary small instances through the default
// (bulk, bit-sliced) pipeline and the reference evaluation and requires
// bit-identical seeds everywhere they are observable — colors, stats,
// and tracked potentials — plus a proper coloring. This is the fuzz
// companion of the owned-edge sweep: fuzzed graphs hit irregular
// sheet layouts (mixed degrees, multiple components, dead nodes after
// early iterations) that the curated sweeps cannot enumerate.
func FuzzPhaseBlock(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4})
	f.Add(uint8(9), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})
	f.Add(uint8(7), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		nn := int(n % 13)
		if nn == 0 {
			t.Skip("empty instance")
		}
		b := graph.NewBuilder(nn)
		for i := 0; i+1 < len(edges) && i < 48; i += 2 {
			u, v := int(edges[i])%nn, int(edges[i+1])%nn
			if u != v && !b.HasEdge(u, v) {
				b.MustAddEdge(u, v)
			}
		}
		inst := graph.DeltaPlusOneInstance(b.Build())
		ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
		if err != nil {
			t.Skipf("clean error: %v", err)
		}
		got, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
		if err != nil {
			t.Fatalf("bulk path failed where reference succeeded: %v", err)
		}
		compareRuns(t, "bulk", ref, got)
		if err := inst.VerifyColoring(got.Colors); err != nil {
			t.Fatalf("improper coloring: %v", err)
		}
	})
}
