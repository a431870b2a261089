package main

import (
	"fmt"
	"strconv"
	"strings"

	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/prng"
)

// sizes fixes every input size of one scale. "full" is the benchmark;
// "tiny" runs the same code paths in well under a second per workload
// and exists for the smoke test.
type sizes struct {
	RegN, RegD int // thm11-regular: connected random RegD-regular graph
	GridSide   int // cor12-grid-ckpt: GridSide×GridSide grid

	// serve-mix resident graphs, one per request class.
	BigN     int // stats and greedy: random 8-regular graph
	CongestN int // congest: random 8-regular graph
	DecompS  int // decomposed: DecompS×DecompS grid
	CliqueN  int // clique: random CliqueD-regular graph
	CliqueD  int
	MPCN     int // mpc: random 8-regular graph

	// Traced-run module probes on thm11-regular and cor12-grid-ckpt:
	// node counts of the BFS samples of the workload graph that stand
	// in for the serve classes those workloads do not run.
	SampleCongest, SampleDecomp, SampleClique, SampleMPC int
	ProbeRepeats                                         int // probe requests per class

	GF2Steps      int // seed-bit steps of the gf2 kernel probe
	BarrierRounds int // empty rounds of the engine barrier probe
	FloodRounds   int // full-neighborhood rounds of the delivery probe
}

var scales = map[string]sizes{
	"full": {
		RegN: 5000, RegD: 8,
		GridSide: 100,
		BigN:     20000, CongestN: 1000, DecompS: 40, CliqueN: 32, CliqueD: 8, MPCN: 100,
		SampleCongest: 1000, SampleDecomp: 1600, SampleClique: 32, SampleMPC: 100,
		ProbeRepeats: 3,
		GF2Steps:     40000, BarrierRounds: 50, FloodRounds: 20,
	},
	"tiny": {
		RegN: 300, RegD: 8,
		GridSide: 14,
		BigN:     400, CongestN: 60, DecompS: 8, CliqueN: 16, CliqueD: 4, MPCN: 24,
		SampleCongest: 60, SampleDecomp: 64, SampleClique: 16, SampleMPC: 24,
		ProbeRepeats: 1,
		GF2Steps:     500, BarrierRounds: 5, FloodRounds: 3,
	},
}

// deckMix is the serve-mix request mix per 40-request deck, listed by
// class from fastest to slowest reply. The proportions put the median
// inside the decomposed band (sorted positions 40–65%) and the 90th
// percentile inside the clique band (80–100%), so neither percentile
// sits on the boundary between two classes' latencies.
//
// stats and greedy requests all go to the one large graph "big". The
// other classes send each of their requests to a graph of its own
// (prefix0, prefix1, …), so a deck's time averages over several graph
// shapes instead of resting on one small graph.
var deckMix = []struct {
	class  string
	count  int
	prefix string
}{
	{"stats", 8, ""},
	{"greedy", 8, ""},
	{"decomposed", 10, "grid"},
	{"congest", 3, "reg"},
	{"mpc", 3, "mpc"},
	{"clique", 8, "clq"},
}

// requestGraph is the resident graph the i-th request of a class uses.
func requestGraph(prefix string, i int) string {
	if prefix == "" {
		return "big"
	}
	return prefix + strconv.Itoa(i)
}

// requestLine is the protocol line of a class's request on a graph.
func requestLine(class, graph string) string {
	if class == "stats" {
		return "stats " + graph
	}
	return "color " + graph + " " + class
}

// classOf returns the request class of a protocol line.
func classOf(line string) string {
	f := strings.Fields(line)
	switch {
	case len(f) == 2 && f[0] == "stats":
		return "stats"
	case len(f) == 3 && f[0] == "color":
		return f[2]
	}
	return ""
}

// subSeed derives the k-th independent generator seed from the
// workload seed, so the graphs of one workload never share a stream.
func subSeed(seed uint64, k int) uint64 {
	src := prng.New(seed)
	var s uint64
	for i := 0; i <= k; i++ {
		s = src.Uint64()
	}
	return s
}

// regular builds a random d-regular graph on n nodes.
func regular(n, d int, seed uint64) (*graph.Graph, error) {
	g, err := graph.RandomRegular(n, d, seed)
	if err != nil {
		return nil, fmt.Errorf("random %d-regular graph on %d nodes: %w", d, n, err)
	}
	return g, nil
}

// relabeledGrid builds the side×side grid with its node IDs permuted by
// the seed. The grid itself has no randomness; the relabeling changes
// every ID-driven choice of the algorithms (Linial colors, tie-breaks,
// cluster centers) while keeping the topology, so seeds vary the run
// and not its size.
func relabeledGrid(side int, seed uint64) (*graph.Graph, error) {
	n := side * side
	perm := prng.New(seed).Perm(n)
	edges := make([][2]int, 0, 2*n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				edges = append(edges, [2]int{perm[v], perm[v+1]})
			}
			if r+1 < side {
				edges = append(edges, [2]int{perm[v], perm[v+side]})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("relabeled %dx%d grid: %w", side, side, err)
	}
	return g, nil
}

// bfsSample returns the subgraph induced by the first k nodes that a
// breadth-first search from node 0 reaches (fewer if the component is
// smaller): a connected, seed-dependent piece of g.
func bfsSample(g *graph.Graph, k int) *graph.Graph {
	seen := make([]bool, g.N())
	order := []int{0}
	seen[0] = true
	for i := 0; i < len(order) && len(order) < k; i++ {
		for _, w := range g.Neighbors(order[i]) {
			if !seen[w] && len(order) < k {
				seen[w] = true
				order = append(order, int(w))
			}
		}
	}
	sub, _ := g.InducedSubgraph(order)
	return sub
}

// deck returns the serve-mix request lines in seeded order: the class
// counts of deckMix, shuffled. Each input of a seed is another order,
// so which requests run side by side varies across a run's repetitions.
func deck(seed uint64, input int) []string {
	var lines []string
	for _, m := range deckMix {
		for i := 0; i < m.count; i++ {
			lines = append(lines, requestLine(m.class, requestGraph(m.prefix, i)))
		}
	}
	prng.New(inputSeed(seed, input)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return lines
}

// probeDeck returns every request class repeats times, on the first
// graph of each class, in seeded order: the serve probe of the
// workloads that do not serve requests.
func probeDeck(seed uint64, repeats int) []string {
	var lines []string
	for _, m := range deckMix {
		for i := 0; i < repeats; i++ {
			lines = append(lines, requestLine(m.class, requestGraph(m.prefix, 0)))
		}
	}
	prng.New(subSeed(seed, 8)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return lines
}
