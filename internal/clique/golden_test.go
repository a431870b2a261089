package clique

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"smallbandwidth/internal/graph"
)

// cliqueGolden is one recorded Theorem 1.3 run: a CRC-32 of the Colors
// (little-endian uint32s) and every other figure the Result carries.
type cliqueGolden struct {
	inst, opts string
	crc        uint32
	stats      Stats
	iterations int
	maxBatch   int
	localAt    int
}

// goldenInstances are the seeded inputs of the golden sweep: a random
// regular graph, a GNP graph, a grid and a random-list instance. The
// forced-batch options run on the small variants (their ProbConj
// queries grow exponentially with the batch width), the others on the
// large ones, where most runs end in the leader's local finish.
func goldenInstances(t *testing.T, small bool) map[string]*graph.Instance {
	t.Helper()
	n := 28
	if small {
		n = 10
	}
	gl := graph.GNP(n, 0.3, 5)
	lists, err := graph.RandomListInstance(gl, 16, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Instance{
		"regular": graph.DeltaPlusOneInstance(graph.MustRandomRegular(n, 4, 4)),
		"gnp":     graph.DeltaPlusOneInstance(graph.GNP(n+2, 0.3, 3)),
		"grid":    graph.DeltaPlusOneInstance(graph.Grid2D(n/3, 4)),
		"lists":   lists,
	}
}

var goldenOptions = map[string]Options{
	"default": {},
	"batch2":  {ForceBatch: 2},
	"batch3":  {ForceBatch: 3},
	"lambda2": {LambdaCap: 2},
}

// goldenCliqueRuns pins ListColorClique's outputs over the sweep. The
// values were recorded before the coin tables were hoisted out of the
// assignment loop, so any drift in the conditional-expectation sums —
// a reordered term, a coin built from the wrong counts — shows here.
// Regenerate a row only for an intended algorithm change.
var goldenCliqueRuns = []cliqueGolden{
	{inst: "regular", opts: "default", crc: 0xd92c19dd, stats: Stats{Rounds: 60, Messages: 7719, Words: 14924, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 1},
	{inst: "regular", opts: "batch2", crc: 0xdb0fdbbf, stats: Stats{Rounds: 74, Messages: 1952, Words: 3715, MaxMessageWords: 4}, iterations: 1, maxBatch: 2, localAt: 0},
	{inst: "regular", opts: "batch3", crc: 0xb77ff79e, stats: Stats{Rounds: 70, Messages: 1996, Words: 3932, MaxMessageWords: 4}, iterations: 1, maxBatch: 3, localAt: 0},
	{inst: "regular", opts: "lambda2", crc: 0xb3190f16, stats: Stats{Rounds: 105, Messages: 4777, Words: 8645, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 4},
	{inst: "gnp", opts: "default", crc: 0xec2174c3, stats: Stats{Rounds: 101, Messages: 14135, Words: 27217, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 3},
	{inst: "gnp", opts: "batch2", crc: 0x61e7d01d, stats: Stats{Rounds: 80, Messages: 2542, Words: 4831, MaxMessageWords: 4}, iterations: 1, maxBatch: 2, localAt: 0},
	{inst: "gnp", opts: "batch3", crc: 0x56f57e4d, stats: Stats{Rounds: 76, Messages: 2586, Words: 5056, MaxMessageWords: 4}, iterations: 1, maxBatch: 3, localAt: 0},
	{inst: "gnp", opts: "lambda2", crc: 0xdf802c05, stats: Stats{Rounds: 173, Messages: 9087, Words: 16423, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 3},
	{inst: "grid", opts: "default", crc: 0x19c68f10, stats: Stats{Rounds: 48, Messages: 14866, Words: 29194, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 0},
	{inst: "grid", opts: "batch2", crc: 0xf4647dcb, stats: Stats{Rounds: 74, Messages: 2298, Words: 4365, MaxMessageWords: 4}, iterations: 1, maxBatch: 2, localAt: 0},
	{inst: "grid", opts: "batch3", crc: 0x2ec7063a, stats: Stats{Rounds: 70, Messages: 2334, Words: 4550, MaxMessageWords: 4}, iterations: 1, maxBatch: 3, localAt: 0},
	{inst: "grid", opts: "lambda2", crc: 0x19c68f10, stats: Stats{Rounds: 102, Messages: 5974, Words: 10780, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 0},
	{inst: "lists", opts: "default", crc: 0xe35fa6b1, stats: Stats{Rounds: 101, Messages: 12966, Words: 24986, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 2},
	{inst: "lists", opts: "batch2", crc: 0xec83b3e7, stats: Stats{Rounds: 102, Messages: 2714, Words: 5160, MaxMessageWords: 4}, iterations: 1, maxBatch: 2, localAt: 0},
	{inst: "lists", opts: "batch3", crc: 0x4f14d82, stats: Stats{Rounds: 102, Messages: 2756, Words: 5326, MaxMessageWords: 4}, iterations: 1, maxBatch: 3, localAt: 0},
	{inst: "lists", opts: "lambda2", crc: 0x4a25683d, stats: Stats{Rounds: 173, Messages: 8195, Words: 14813, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 3},
}

// goldenWideRuns pins runs with n ≥ 128, where the seed segment is
// λ = 7 bits wide and its 128 assignments span two 64-lane chunks of
// the lane walk. The values were recorded before the lane walk
// replaced the per-assignment scalar walks.
var goldenWideRuns = []cliqueGolden{
	{inst: "regular128", opts: "default", crc: 0x51ccbaef, stats: Stats{Rounds: 42, Messages: 126970, Words: 252361, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 21},
	{inst: "gnp130", opts: "default", crc: 0x38efc1a4, stats: Stats{Rounds: 65, Messages: 222731, Words: 442785, MaxMessageWords: 3}, iterations: 1, maxBatch: 1, localAt: 13},
}

func colorsCRC(colors []uint32) uint32 {
	buf := make([]byte, 4*len(colors))
	for i, c := range colors {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	return crc32.ChecksumIEEE(buf)
}

func TestCliqueGoldenSweep(t *testing.T) {
	insts := map[bool]map[string]*graph.Instance{
		false: goldenInstances(t, false), true: goldenInstances(t, true),
	}
	want := map[[2]string]cliqueGolden{}
	for _, g := range goldenCliqueRuns {
		want[[2]string{g.inst, g.opts}] = g
	}
	for _, in := range []string{"regular", "gnp", "grid", "lists"} {
		for _, on := range []string{"default", "batch2", "batch3", "lambda2"} {
			res, err := ListColorClique(insts[goldenOptions[on].ForceBatch > 0][in], goldenOptions[on])
			if err != nil {
				t.Fatalf("%s/%s: %v", in, on, err)
			}
			got := cliqueGolden{in, on, colorsCRC(res.Colors), res.Stats,
				res.Iterations, res.MaxBatch, res.LocalFinishUncolored}
			if w, ok := want[[2]string{in, on}]; !ok || w != got {
				t.Errorf("%s/%s drifted from the recorded run; got\n\t%#v,", in, on, got)
			}
		}
	}
	wide := map[string]*graph.Instance{
		"regular128": graph.DeltaPlusOneInstance(graph.MustRandomRegular(128, 4, 4)),
		"gnp130":     graph.DeltaPlusOneInstance(graph.GNP(130, 0.04, 3)),
	}
	for _, w := range goldenWideRuns {
		res, err := ListColorClique(wide[w.inst], goldenOptions[w.opts])
		if err != nil {
			t.Fatalf("%s/%s: %v", w.inst, w.opts, err)
		}
		got := cliqueGolden{w.inst, w.opts, colorsCRC(res.Colors), res.Stats,
			res.Iterations, res.MaxBatch, res.LocalFinishUncolored}
		if got != w {
			t.Errorf("%s/%s drifted from the recorded run; got\n\t%#v,", w.inst, w.opts, got)
		}
	}
}
