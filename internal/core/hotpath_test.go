package core

import (
	"math"
	"testing"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// TestPhasePotentialsMatchReference runs the full Theorem 1.1 pipeline
// twice on seeded graphs — once through the optimized hot path (cached
// coin forms, split-basis dual-β evaluation, marginal memo, reused
// buffers) and once through the verbatim pre-optimization evaluation
// (runPhaseRef) — and requires bit-identical results everywhere the
// derandomization is observable: colors, stats, iteration telemetry,
// and every tracked potential.
func TestPhasePotentialsMatchReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle24", graph.Cycle(24)},
		{"torus5x5", graph.Torus2D(5, 5)},
		{"regular4", graph.MustRandomRegular(40, 4, 3)},
		{"gnp", graph.GNP(48, 0.12, 9)},
		{"star+path", disjointStarPath(t)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			fast, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
			if err != nil {
				t.Fatal(err)
			}
			if fast.Stats != ref.Stats {
				t.Fatalf("stats differ: fast %+v, ref %+v", fast.Stats, ref.Stats)
			}
			if fast.Iterations != ref.Iterations {
				t.Fatalf("iterations differ: %d vs %d", fast.Iterations, ref.Iterations)
			}
			for v := range fast.Colors {
				if fast.Colors[v] != ref.Colors[v] {
					t.Fatalf("node %d color differs: %d vs %d", v, fast.Colors[v], ref.Colors[v])
				}
			}
			for it := range ref.PotentialStart {
				if math.Float64bits(fast.PotentialStart[it]) != math.Float64bits(ref.PotentialStart[it]) {
					t.Fatalf("iteration %d: PotentialStart %v vs ref %v",
						it, fast.PotentialStart[it], ref.PotentialStart[it])
				}
				for l := range ref.PotentialPhase[it] {
					if math.Float64bits(fast.PotentialPhase[it][l]) != math.Float64bits(ref.PotentialPhase[it][l]) {
						t.Fatalf("iteration %d phase %d: PotentialPhase %v vs ref %v",
							it, l+1, fast.PotentialPhase[it][l], ref.PotentialPhase[it][l])
					}
				}
			}
		})
	}
}

func disjointStarPath(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for i := 1; i < 6; i++ {
		if err := b.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 6; i < 11; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestPhaseStepAllocFree is the allocs/op regression guard on the
// steady-state phase computation, one case per arm of evalPhaseBit:
// the block arm (D ≤ 64) and the lane arm (D > 64, the HighAccuracy
// parameters of a 3,901-node star). With warm per-node caches (forms
// built, sheets and lane scratch reused, split bases pooled), a run of
// seed bits — split, evaluate, fix, fold — must not allocate. Each run
// moves the neighbor thresholds, so the block arm's marginal memo
// misses and its batch fill runs too. Before the hot-path rework this
// step allocated hundreds of objects (fresh forms, coins, and basis
// rows per edge per bit).
func TestPhaseStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached objects under -race; allocation counts are meaningless")
	}
	for _, tc := range []struct {
		name     string
		n, delta int
		c        uint32
		opts     Options
		lanes    bool
	}{
		{"block", 40, 24, 25, Options{}, false},
		{"lanes", 3901, 3900, 1<<29 - 1, Options{HighAccuracy: true}, true},
	} {
		p := mustParams(t, tc.n, tc.delta, tc.c, tc.opts)
		if (p.D > 64) != tc.lanes {
			t.Fatalf("%s: seed length D = %d selects the wrong arm", tc.name, p.D)
		}
		ns := synthNode(t, p, 3, tc.n, 4)
		var lanes *phaseLanes
		if tc.lanes {
			lanes = new(phaseLanes)
		}
		basis := gf2.NewBasis()
		run := 0
		step := func() {
			run++
			for i := range ns.ownedIdx {
				ns.nbrLen[i] = uint64(4 + run)
				ns.nbrCoins[i], _ = gf2.NewCoinFromForms(ns.neighborForms(i, ns.nbrPsi[i]), ns.nbrK1[i], ns.nbrLen[i])
			}
			basis.Reset()
			ns.buildSheets(ns.phMyCoin)
			var prefix uint64
			for j := 0; j < 10; j++ {
				sb := splitBit(basis, p.D, j)
				x0, x1 := ns.evalPhaseBit(j, basis, sb, lanes, prefix)
				if sb != nil {
					sb.Release()
				}
				rj := x1 < x0
				basis.FixBit(j, rj)
				ns.foldSheets(j, rj)
				if rj {
					prefix |= uint64(1) << j
				}
			}
		}
		step() // warm the caches and pools
		if n := testing.AllocsPerRun(20, step); n > 0 {
			t.Fatalf("%s: steady-state phase step allocates %v objects per run, want 0", tc.name, n)
		}
	}
}

// TestMarginalMemoPinsPureValues: the memo returns exactly what a fresh
// computation produces (purity), including across differently ordered
// accesses.
func TestMarginalMemoPinsPureValues(t *testing.T) {
	fam := gf2.MustFamily(8, 2)
	forms := fam.OutputForms(13, 6)
	coin, err := gf2.NewCoinFromForms(forms, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	basis := gf2.NewBasis()
	basis.FixBit(0, true)
	var p [2]float64
	for beta := range p {
		bs := basis.Clone()
		if !bs.FixBit(1, beta == 1) {
			t.Fatal("free bit re-fix failed")
		}
		p[beta] = coin.ProbOne(bs)
	}
	p0, p1 := p[0], p[1]
	const k3 = uint64(1) | 8<<8 | 6<<16
	margStore(0, 13, coin.Threshold(), 1, k3, p0, p1)
	g0, g1, hit := margLoad(0, 13, coin.Threshold(), 1, k3)
	if !hit {
		t.Fatal("stored entry not found")
	}
	if math.Float64bits(g0) != math.Float64bits(p0) || math.Float64bits(g1) != math.Float64bits(p1) {
		t.Fatalf("memo returned (%v,%v), stored (%v,%v)", g0, g1, p0, p1)
	}
	if _, _, hit := margLoad(0, 14, coin.Threshold(), 1, k3); hit {
		t.Fatal("memo hit on a different key")
	}
	// Stripes are disjoint tables: the same key misses in another stripe
	// (owners there recompute the same pure value instead of sharing).
	if _, _, hit := margLoad(1, 13, coin.Threshold(), 1, k3); hit {
		t.Fatal("memo hit across stripes")
	}
	// Stripe mapping: contiguous bands covering [0, n), clamped in range.
	if margStripeFor(0, 1<<20) != 0 || margStripeFor(1<<20-1, 1<<20) != margStripes-1 {
		t.Fatal("stripe band endpoints wrong")
	}
	for v := 0; v < 1000; v++ {
		s := margStripeFor(v*1013, 1<<20)
		if s < 0 || s >= margStripes {
			t.Fatalf("stripe %d out of range", s)
		}
	}
}
