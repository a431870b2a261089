package mpc

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"smallbandwidth/internal/graph"
)

// mpcGolden is one recorded Theorem 1.4/1.5 run: a CRC-32 of the Colors
// (little-endian uint32s) and the resources the runtime charged.
type mpcGolden struct {
	inst, opts   string
	crc          uint32
	rounds       int
	iterations   int
	highWaterMem int
	highWaterIO  int
	finished     bool
}

// goldenInstances are the seeded inputs of the golden sweep: a random
// regular graph, a GNP graph, a grid and a random-list instance.
func goldenInstances(t *testing.T) map[string]*graph.Instance {
	t.Helper()
	gl := graph.GNP(100, 0.08, 5)
	lists, err := graph.RandomListInstance(gl, 64, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Instance{
		"regular": graph.DeltaPlusOneInstance(graph.MustRandomRegular(120, 6, 4)),
		"gnp":     graph.DeltaPlusOneInstance(graph.GNP(120, 0.06, 3)),
		"grid":    graph.DeltaPlusOneInstance(graph.Grid2D(10, 12)),
		"lists":   lists,
	}
}

var goldenOptions = map[string]Options{
	"linear":    {},
	"sublinear": {Sublinear: true},
	"lambda2":   {LambdaCap: 2},
	// S = 2^15 gives λ = 7 (2^λ ≤ √S): 128 assignments per segment, two
	// 64-lane chunks of the lane walk. The layout is sublinear because
	// the linear one ships these inputs to one machine before the first
	// iteration.
	"s32k": {Sublinear: true, S: 1 << 15},
}

// goldenMPCRuns pins ListColorMPC's outputs over the sweep. The values
// were recorded before the coins and marginals were hoisted out of the
// assignment loop, so any drift in the conditional-expectation sums
// shows here. Regenerate a row only for an intended algorithm change.
var goldenMPCRuns = []mpcGolden{
	{inst: "regular", opts: "linear", crc: 0x9e989d15, rounds: 44, iterations: 1, highWaterMem: 684, highWaterIO: 1258, finished: true},
	{inst: "regular", opts: "sublinear", crc: 0x201351b2, rounds: 357, iterations: 2, highWaterMem: 30, highWaterIO: 87, finished: false},
	{inst: "regular", opts: "lambda2", crc: 0x9329e137, rounds: 80, iterations: 1, highWaterMem: 684, highWaterIO: 432, finished: true},
	{inst: "gnp", opts: "linear", crc: 0xce66224e, rounds: 64, iterations: 1, highWaterMem: 750, highWaterIO: 1258, finished: true},
	{inst: "gnp", opts: "sublinear", crc: 0x7abed261, rounds: 565, iterations: 2, highWaterMem: 30, highWaterIO: 87, finished: false},
	{inst: "gnp", opts: "lambda2", crc: 0x2c37de59, rounds: 128, iterations: 1, highWaterMem: 750, highWaterIO: 480, finished: true},
	{inst: "grid", opts: "linear", crc: 0xb1b8f2e, rounds: 36, iterations: 1, highWaterMem: 726, highWaterIO: 1258, finished: false},
	{inst: "grid", opts: "sublinear", crc: 0x3c2d7f18, rounds: 321, iterations: 2, highWaterMem: 33, highWaterIO: 87, finished: false},
	{inst: "grid", opts: "lambda2", crc: 0x4aef067a, rounds: 72, iterations: 1, highWaterMem: 726, highWaterIO: 444, finished: false},
	{inst: "lists", opts: "linear", crc: 0xdd56cafc, rounds: 92, iterations: 1, highWaterMem: 648, highWaterIO: 1156, finished: true},
	{inst: "lists", opts: "sublinear", crc: 0x3b59967, rounds: 837, iterations: 2, highWaterMem: 30, highWaterIO: 80, finished: false},
	{inst: "lists", opts: "lambda2", crc: 0x7a05edc4, rounds: 188, iterations: 1, highWaterMem: 648, highWaterIO: 390, finished: true},
	// Recorded before the lane walk replaced the per-assignment scalar
	// walks.
	{inst: "regular", opts: "s32k", crc: 0x667daa0b, rounds: 83, iterations: 2, highWaterMem: 2340, highWaterIO: 23530, finished: false},
	{inst: "gnp", opts: "s32k", crc: 0x210895f7, rounds: 107, iterations: 2, highWaterMem: 2832, highWaterIO: 23530, finished: false},
	{inst: "grid", opts: "s32k", crc: 0xe5d1884b, rounds: 36, iterations: 1, highWaterMem: 1488, highWaterIO: 23530, finished: false},
	{inst: "lists", opts: "s32k", crc: 0x48ca4576, rounds: 78, iterations: 1, highWaterMem: 2742, highWaterIO: 23530, finished: false},
}

func colorsCRC(colors []uint32) uint32 {
	buf := make([]byte, 4*len(colors))
	for i, c := range colors {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	return crc32.ChecksumIEEE(buf)
}

func TestMPCGoldenSweep(t *testing.T) {
	insts := goldenInstances(t)
	want := map[[2]string]mpcGolden{}
	for _, g := range goldenMPCRuns {
		want[[2]string{g.inst, g.opts}] = g
	}
	for _, in := range []string{"regular", "gnp", "grid", "lists"} {
		for _, on := range []string{"linear", "sublinear", "lambda2", "s32k"} {
			res, err := ListColorMPC(insts[in], goldenOptions[on])
			if err != nil {
				t.Fatalf("%s/%s: %v", in, on, err)
			}
			got := mpcGolden{in, on, colorsCRC(res.Colors), res.Rounds, res.Iterations,
				res.HighWaterMemory, res.HighWaterIO, res.FinishedLocally}
			if w, ok := want[[2]string{in, on}]; !ok || w != got {
				t.Errorf("%s/%s drifted from the recorded run; got\n\t%#v,", in, on, got)
			}
		}
	}
}
