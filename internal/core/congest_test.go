package core

import (
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
)

func mustInstance(t *testing.T, g *graph.Graph) *graph.Instance {
	t.Helper()
	inst := graph.DeltaPlusOneInstance(g)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestListColorSmallGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"single":   graph.Path(1),
		"edge":     graph.Path(2),
		"triangle": graph.Complete(3),
		"path":     graph.Path(9),
		"cycle":    graph.Cycle(8),
		"star":     graph.Star(7),
		"grid":     graph.Grid2D(3, 4),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			inst := mustInstance(t, g)
			res, err := ListColorCONGEST(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("run did not color all nodes")
			}
			if err := inst.VerifyColoring(res.Colors); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListColorMediumGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("medium graphs skipped in -short")
	}
	cases := map[string]*graph.Graph{
		"regular":   graph.MustRandomRegular(48, 4, 7),
		"gnp":       graph.GNP(40, 0.12, 3),
		"torus":     graph.Torus2D(5, 5),
		"hypercube": graph.Hypercube(4),
		"caveman":   graph.Caveman(4, 4),
		"barbell":   graph.Barbell(5, 6),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if !g.IsConnected() {
				t.Skip("generator produced a disconnected graph")
			}
			inst := mustInstance(t, g)
			res, err := ListColorCONGEST(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("run did not color all nodes")
			}
		})
	}
}

func TestListColorRandomLists(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 9)
	inst, err := graph.RandomListInstance(g, 64, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not color all nodes")
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestListColorShiftedLists(t *testing.T) {
	g := graph.Cycle(16)
	inst, err := graph.ShiftedListInstance(g, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not color all nodes")
	}
}

// TestPartialColoringFraction validates the Lemma 2.1 guarantee: every
// iteration permanently colors at least 1/8 of the still-uncolored nodes.
func TestPartialColoringFraction(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(24),
		graph.MustRandomRegular(40, 4, 1),
		graph.Grid2D(5, 6),
		graph.Star(16),
	}
	for gi, g := range graphs {
		inst := mustInstance(t, g)
		res, err := ListColorCONGEST(inst, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for i := 0; i < res.Iterations; i++ {
			alive := res.AliveAt[i]
			colored := res.Colored[i]
			if colored*8 < alive {
				t.Errorf("graph %d iteration %d: colored %d of %d < 1/8 (Lemma 2.1 violated)",
					gi, i, colored, alive)
			}
		}
	}
}

// TestPotentialInvariant validates the Lemma 2.6 per-phase bound
// ΣΦ_ℓ ≤ ΣΦ_{ℓ−1} + n_alive/⌈logC⌉ and the final ΣΦ ≤ 2·n_alive of
// Lemma 2.1's proof.
func TestPotentialInvariant(t *testing.T) {
	g := graph.MustRandomRegular(36, 4, 4)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1e-6
	for i := 0; i < res.Iterations; i++ {
		alive := float64(res.AliveAt[i])
		budget := alive / float64(res.Params.LogC)
		prev := res.PotentialStart[i]
		if prev >= alive {
			t.Errorf("iteration %d: ΣΦ₀ = %v ≥ n_alive = %v", i, prev, alive)
		}
		for l := 0; l < res.Params.LogC; l++ {
			cur := res.PotentialPhase[i][l]
			if cur > prev+budget+slack {
				t.Errorf("iteration %d phase %d: ΣΦ %v > %v + %v (Lemma 2.6 violated)",
					i, l+1, cur, prev, budget)
			}
			prev = cur
		}
		final := res.PotentialPhase[i][res.Params.LogC-1]
		if final > 2*alive+slack {
			t.Errorf("iteration %d: final ΣΦ = %v > 2·n_alive = %v", i, final, 2*alive)
		}
	}
}

// TestSeedLengthIndependentOfN: Lemma 2.5/2.6 — the seed length depends
// on Δ, K and loglogC but not directly on n beyond K = O(Δ²).
func TestSeedLengthIndependentOfN(t *testing.T) {
	var seedBits []int
	for _, n := range []int{16, 32, 64} {
		inst := mustInstance(t, graph.Cycle(n))
		p, err := ComputeParams(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seedBits = append(seedBits, p.D)
	}
	for i := 1; i < len(seedBits); i++ {
		if seedBits[i] != seedBits[0] {
			t.Errorf("seed length varies with n on cycles: %v", seedBits)
		}
	}
}

func TestMaxIterationsRunsLemma21Once(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 2)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
	if res.Done {
		t.Skip("instance fully colored in one iteration (allowed but unusual)")
	}
	if res.Colored[0]*8 < res.AliveAt[0] {
		t.Errorf("single Lemma 2.1 invocation colored %d of %d < 1/8",
			res.Colored[0], res.AliveAt[0])
	}
}

func TestRoundsScaleWithDiameter(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test skipped in -short")
	}
	small := mustInstance(t, graph.Cycle(12))
	big := mustInstance(t, graph.Cycle(48))
	rSmall, err := ListColorCONGEST(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := ListColorCONGEST(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rBig.Stats.Rounds <= rSmall.Stats.Rounds {
		t.Errorf("rounds did not grow with diameter: %d vs %d",
			rSmall.Stats.Rounds, rBig.Stats.Rounds)
	}
}

func TestBandwidthRespected(t *testing.T) {
	inst := mustInstance(t, graph.Grid2D(4, 4))
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageWords > 4 {
		t.Errorf("message of %d words observed; CONGEST cap is 4", res.Stats.MaxMessageWords)
	}
}

func TestHighAccuracyVariant(t *testing.T) {
	g := graph.Cycle(12)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{HighAccuracy: true, TrackPotentials: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("high-accuracy run did not finish")
	}
	// Sharper accuracy must not hurt the potential bound.
	for i := range res.PotentialPhase {
		final := res.PotentialPhase[i][res.Params.LogC-1]
		if final > 2*float64(res.AliveAt[i]) {
			t.Errorf("iteration %d: ΣΦ = %v too large", i, final)
		}
	}
}

func TestDisconnectedRunsInOneEngineRun(t *testing.T) {
	g, err := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatalf("component-aware ListColorCONGEST rejected a disconnected graph: %v", err)
	}
	if !res.Done {
		t.Fatal("disconnected run incomplete")
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectedStatsAreParallelComposition pins the accounting of one
// engine run over several components: rounds must behave like the max
// over components (adding a tiny far-away component to a big one must
// not add its rounds on top), while messages strictly sum.
func TestDisconnectedStatsAreParallelComposition(t *testing.T) {
	big := graph.Cycle(32)
	bigRes, err := ListColorCONGEST(mustInstance(t, big), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// big cycle ⊔ one edge ⊔ one isolated node.
	b := graph.NewBuilder(35)
	big.Edges(func(u, v int) { b.MustAddEdge(u, v) })
	b.MustAddEdge(32, 33)
	union := b.Build()
	res, err := ListColorCONGEST(mustInstance(t, union), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mustInstance(t, union).VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > 2*bigRes.Stats.Rounds {
		t.Errorf("union rounds %d look summed, not maxed (big component alone: %d)",
			res.Stats.Rounds, bigRes.Stats.Rounds)
	}
	if res.Stats.Messages <= bigRes.Stats.Messages {
		t.Errorf("union messages %d did not grow over the big component's %d",
			res.Stats.Messages, bigRes.Stats.Messages)
	}
}

// TestDedupMatchesPerComponentRuns is the exactness lockdown of the
// identical-component memoization: on a graph with duplicated
// components, ListColorCONGEST's colors and stats must be bit-identical
// to composing one standalone run per component (max rounds, summed
// traffic, colors mapped by rank) — i.e., simulating a representative
// once must be observationally indistinguishable from simulating every
// copy.
func TestDedupMatchesPerComponentRuns(t *testing.T) {
	b := graph.NewBuilder(26)
	// Three identical 5-node paths.
	for s := 0; s < 15; s += 5 {
		for i := 0; i < 4; i++ {
			b.MustAddEdge(s+i, s+i+1)
		}
	}
	// Two identical triangles.
	for s := 15; s < 21; s += 3 {
		b.MustAddEdge(s, s+1)
		b.MustAddEdge(s+1, s+2)
		b.MustAddEdge(s, s+2)
	}
	// One unique star.
	for i := 22; i < 26; i++ {
		b.MustAddEdge(21, i)
	}
	g := b.Build()
	inst := mustInstance(t, g)

	full, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(full.Colors); err != nil {
		t.Fatal(err)
	}

	var want congest.Stats
	for _, comp := range g.ConnectedComponents() {
		sub, orig := g.InducedSubgraph(comp)
		lists := make([][]uint32, sub.N())
		for i, v := range orig {
			lists[i] = append([]uint32(nil), inst.Lists[v]...)
		}
		res, err := ListColorCONGEST(&graph.Instance{G: sub, C: inst.C, Lists: lists}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range orig {
			if full.Colors[v] != res.Colors[i] {
				t.Fatalf("node %d: full run colored %d, standalone component run %d",
					v, full.Colors[v], res.Colors[i])
			}
		}
		if res.Stats.Rounds > want.Rounds {
			want.Rounds = res.Stats.Rounds
		}
		want.Messages += res.Stats.Messages
		want.Words += res.Stats.Words
		if res.Stats.MaxMessageWords > want.MaxMessageWords {
			want.MaxMessageWords = res.Stats.MaxMessageWords
		}
	}
	if full.Stats != want {
		t.Fatalf("deduplicated stats %+v != per-component composition %+v", full.Stats, want)
	}
}

// TestListsNotAliasedIntoRun is the aliasing regression of the instance
// boundary: a run (connected or not) must leave the caller's inst.Lists
// byte-identical — node programs shift their working lists in place, so
// sharing a backing array would corrupt the caller's instance.
func TestListsNotAliasedIntoRun(t *testing.T) {
	g, err := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustInstance(t, g)
	snapshot := make([][]uint32, len(inst.Lists))
	for v, l := range inst.Lists {
		snapshot[v] = append([]uint32(nil), l...)
	}
	if _, err := ListColorCONGEST(inst, Options{}); err != nil {
		t.Fatal(err)
	}
	for v, l := range inst.Lists {
		if len(l) != len(snapshot[v]) {
			t.Fatalf("node %d list length changed: %d -> %d", v, len(snapshot[v]), len(l))
		}
		for i := range l {
			if l[i] != snapshot[v][i] {
				t.Fatalf("node %d list mutated at index %d: %d -> %d", v, i, snapshot[v][i], l[i])
			}
		}
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	g := graph.Path(3)
	inst := graph.DeltaPlusOneInstance(g)
	inst.Lists[1] = inst.Lists[1][:1] // too short
	if _, err := ListColorCONGEST(inst, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	g := graph.Grid2D(4, 4)
	inst := mustInstance(t, g)
	r1, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Colors {
		if r1.Colors[v] != r2.Colors[v] {
			t.Fatalf("node %d colored %d then %d: algorithm is not deterministic",
				v, r1.Colors[v], r2.Colors[v])
		}
	}
	if r1.Stats.Rounds != r2.Stats.Rounds {
		t.Errorf("round counts differ: %d vs %d", r1.Stats.Rounds, r2.Stats.Rounds)
	}
}
