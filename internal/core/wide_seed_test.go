package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
)

// wideSeedInstance is a HighAccuracy input whose seed is longer than one
// word: a star with 3,900 leaves (Δ = 3900) and C = 2^29−1 gives
// B = ⌈log₂(10·3901²·29)⌉ = 33, so M = 33 and D = 66. A few leaf–leaf
// edges make leaves own conflict edges too, so more than the center
// evaluates edges at every seed bit. Lists have size deg+1.
func wideSeedInstance(t *testing.T) *graph.Instance {
	t.Helper()
	const leaves = 3900
	b := graph.NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.MustAddEdge(0, v)
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {7, 11}, {100, 3900}, {1000, 1001}, {2500, 3333}} {
		b.MustAddEdge(e[0], e[1])
	}
	inst, err := graph.RandomListInstance(b.Build(), 1<<29-1, 0, 66)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runDigest is a CRC-32 of a run's Colors (little-endian uint32s) and of
// its tracked potentials (Float64bits, little-endian, iteration by
// iteration: PotentialStart then each phase).
func runDigest(res *Result) (colors, pots uint32) {
	var buf [8]byte
	hc := crc32.NewIEEE()
	for _, c := range res.Colors {
		binary.LittleEndian.PutUint32(buf[:4], c)
		hc.Write(buf[:4])
	}
	hp := crc32.NewIEEE()
	for it := range res.PotentialStart {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.PotentialStart[it]))
		hp.Write(buf[:])
		for _, p := range res.PotentialPhase[it] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			hp.Write(buf[:])
		}
	}
	return hc.Sum32(), hp.Sum32()
}

// TestWideSeedPin pins a D = 66 run, the seed length past the 64-bit
// sheet and memo layout, by golden digest. The values were recorded
// before the D > 64 seed bits moved onto the lane walk; any drift in a
// conditional expectation shows here. Outside -short and -race it also
// requires the default run to be bit-identical to the reference path
// (refEval, about 8 s), to the per-node loop (noBulk) and to a
// two-worker run.
func TestWideSeedPin(t *testing.T) {
	inst := wideSeedInstance(t)
	opts := Options{HighAccuracy: true, TrackPotentials: true, Workers: 1}
	got, err := ListColorCONGEST(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params.D != 66 {
		t.Fatalf("seed length D = %d, want 66", got.Params.D)
	}
	if err := inst.VerifyColoring(got.Colors); err != nil {
		t.Fatal(err)
	}
	const (
		wantColors = 0x99afbe79
		wantPots   = 0x040dea0b
		wantIters  = 1
	)
	wantStats := congest.Stats{Rounds: 15446, Messages: 14996200, Words: 59925588, MaxMessageWords: 4}
	colors, pots := runDigest(got)
	if colors != wantColors || pots != wantPots || got.Iterations != wantIters || got.Stats != wantStats {
		t.Errorf("D=66 run: colors %#x, potentials %#x, %d iterations, stats %+v; want %#x, %#x, %d, %+v",
			colors, pots, got.Iterations, got.Stats, uint32(wantColors), uint32(wantPots), wantIters, wantStats)
	}
	if testing.Short() || raceEnabled {
		t.Skip("differential runs skipped under -short and -race")
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"refEval", Options{HighAccuracy: true, TrackPotentials: true, refEval: true}},
		{"noBulk", Options{HighAccuracy: true, TrackPotentials: true, noBulk: true, Workers: 2}},
		{"workers=2", Options{HighAccuracy: true, TrackPotentials: true, Workers: 2}},
	} {
		res, err := ListColorCONGEST(inst, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		compareRuns(t, v.name, got, res)
	}
}
