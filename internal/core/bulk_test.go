package core

import (
	"bytes"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// bandRun is everything a run exposes that the hub's band fan-out could
// perturb: the tracked-potential result and the encoded checkpoint cut
// at every commit barrier.
type bandRun struct {
	res  *Result
	cuts [][]byte
}

func runForBands(t *testing.T, inst *graph.Instance, opts Options) bandRun {
	t.Helper()
	tracked := opts
	tracked.TrackPotentials = true
	res, err := ListColorCONGEST(inst, tracked)
	if err != nil {
		t.Fatal(err)
	}
	ck := &congest.Checkpointer{KeepAll: true}
	if _, err := ListColorResumable(inst, opts, ck, nil); err != nil {
		t.Fatal(err)
	}
	var cuts [][]byte
	for _, k := range ck.CutRounds() {
		cuts = append(cuts, EncodeCheckpoint(&Checkpoint{Inst: inst, Snap: ck.At(k)}))
	}
	return bandRun{res: res, cuts: cuts}
}

func compareBandRuns(t *testing.T, name string, ref, got bandRun) {
	t.Helper()
	compareRuns(t, name, ref.res, got.res)
	if len(got.cuts) != len(ref.cuts) {
		t.Errorf("%s: %d checkpoint cuts, ref %d", name, len(got.cuts), len(ref.cuts))
		return
	}
	for i := range ref.cuts {
		if !bytes.Equal(got.cuts[i], ref.cuts[i]) {
			t.Errorf("%s: checkpoint cut %d differs from ref", name, i)
			return
		}
	}
}

// giantPlusSingletons is one 10×12 torus component followed by 50
// isolated nodes: a hub that fans out next to many one-slot hubs.
func giantPlusSingletons(t *testing.T) *graph.Graph {
	t.Helper()
	torus := graph.Torus2D(10, 12)
	var edges [][2]int
	torus.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	g, err := graph.FromEdges(torus.N()+50, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHubBandsSweep forces the phase hub onto 2, 3, 4 and 8 worker
// bands (through the delivery-shard hook its band count follows) on
// small graphs that the workers sweeps never fan out, and pins every
// result against the single-band run and the per-node aggregation path
// (noBulk): colors, stats, potentials and checkpoint bytes. The cases
// cover the band cuts' corners — a star whose root owns every edge, so
// one band carries all the work; a complete bipartite graph whose two
// left nodes own every edge, so most bands own none; and a component
// that fans out beside many singletons, which stay on one band.
func TestHubBandsSweep(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(150, 0.05, 23)},
		{"star", graph.Star(90)},
		{"bipartite2x9", graph.CompleteBipartite(2, 9)},
		{"giant+singletons", giantPlusSingletons(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			one := runForBands(t, inst, Options{Workers: 1})
			perNode := runForBands(t, inst, Options{Workers: 1, noBulk: true})
			compareBandRuns(t, "noBulk vs one band", one, perNode)
			for _, bands := range []int{2, 3, 4, 8} {
				engine.SetForceShards(bands)
				got := runForBands(t, inst, Options{})
				engine.SetForceShards(0)
				compareBandRuns(t, "bands="+itoa(bands)+" vs one band", one, got)
				compareBandRuns(t, "bands="+itoa(bands)+" vs noBulk", perNode, got)
			}
		})
	}
}

// synthHub builds a hub over size live slots whose owned-edge counts
// are skewed toward low ranks the way real components are (rank si owns
// max(1, deg−si) edges), with every slot's coins bound and sheets laid
// out as runPhase leaves them, and a star fold schedule rooted at slot
// 0. The band count follows the shard hook, as in a real run. p is
// the (size, deg, deg+1) parameter set unless given.
func synthHub(t *testing.T, p *Params, size, deg int) *phaseHub {
	t.Helper()
	if p == nil {
		p = mustParams(t, size, deg, uint32(deg+1), Options{})
	}
	h := newPhaseHub(size, p, 0)
	for si := 0; si < size; si++ {
		ns := synthNode(t, p, si, size, max(1, deg-si))
		h.slots[si].ns = ns
		if si > 0 {
			h.slots[0].kids = append(h.slots[0].kids, int32(si))
			h.order = append(h.order, int32(si))
		}
	}
	h.order = append(h.order, 0)
	h.built = true
	return h
}

func mustParams(t *testing.T, n, delta int, c uint32, opts Options) *Params {
	t.Helper()
	p, err := computeParamsFor(n, delta, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// synthNode is slot si of an n-slot synthetic component: an alive node
// with owned conflict edges to neighbors of varied ψ and coin counts,
// its phase inputs stashed and its sheets laid out as runPhase leaves
// them.
func synthNode(t *testing.T, p *Params, si, n, owned int) *nodeState {
	t.Helper()
	ns := &nodeState{p: p, alive: true, psi: uint64(si) % p.K, memoStripe: margStripeFor(si, n)}
	ns.nbrPsi = make([]uint64, owned)
	ns.nbrK1 = make([]uint64, owned)
	ns.nbrLen = make([]uint64, owned)
	ns.nbrCoins = make([]gf2.Coin, owned)
	ns.nbrForms = make([][]gf2.Form, owned)
	ns.nbrFormsPsi = make([]uint64, owned)
	ns.nbrFormsOK = make([]bool, owned)
	var err error
	for i := 0; i < owned; i++ {
		ns.nbrPsi[i] = uint64(si+3*i+1) % p.K
		ns.nbrK1[i], ns.nbrLen[i] = uint64(1+i%3), 4
		ns.nbrCoins[i], err = gf2.NewCoinFromForms(ns.neighborForms(i, ns.nbrPsi[i]), ns.nbrK1[i], ns.nbrLen[i])
		if err != nil {
			t.Fatal(err)
		}
		ns.ownedIdx = append(ns.ownedIdx, int32(i))
	}
	ns.phK1, ns.phK0 = 2, 3
	ns.phMyCoin, err = gf2.NewCoinFromForms(ns.ownForms(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ns.buildSheets(ns.phMyCoin)
	return ns
}

// resetSheets re-lays every slot's sheets, undoing a segment's folds so
// the next runSeedBits starts from the state runPhase leaves.
func (h *phaseHub) resetSheets() {
	for si := range h.slots {
		ns := h.slots[si].ns
		ns.buildSheets(ns.phMyCoin)
	}
}

// TestHubBandCuts pins the work-weighted cuts on a skewed component:
// the bands tile the slots in order, and no band outweighs its share of
// the total by more than the heaviest slot.
func TestHubBandCuts(t *testing.T) {
	defer engine.SetForceShards(0)
	for _, bands := range []int{2, 3, 4, 8} {
		engine.SetForceShards(bands)
		h := synthHub(t, nil, 40, 30)
		h.cutBands()
		if h.k != bands || h.cuts[0] != 0 || h.cuts[h.k] != h.size {
			t.Fatalf("bands=%d: k=%d cuts=%v", bands, h.k, h.cuts)
		}
		total, maxW := 0, 0
		for si := range h.slots {
			w := 1 + len(h.slots[si].ns.ownedIdx)
			total += w
			maxW = max(maxW, w)
		}
		for b := 0; b < h.k; b++ {
			if h.cuts[b] > h.cuts[b+1] {
				t.Fatalf("bands=%d: cuts not monotone: %v", bands, h.cuts)
			}
			w := 0
			for si := h.cuts[b]; si < h.cuts[b+1]; si++ {
				w += 1 + len(h.slots[si].ns.ownedIdx)
			}
			if w > total/bands+maxW {
				t.Errorf("bands=%d: band %d weighs %d of %d (cuts %v)", bands, b, w, total, h.cuts)
			}
		}
	}
}

// TestHubSegmentAllocFree is the allocs/op guard on the fanned-out hub
// segment: with the band goroutine bodies built once per hub and the
// per-band split clones drawn from the split pool, a warm segment —
// band start, D fork/join steps, band stop — allocates nothing.
func TestHubSegmentAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached objects under -race; allocation counts are meaningless")
	}
	engine.SetForceShards(4)
	h := synthHub(t, nil, 60, 24)
	engine.SetForceShards(0)
	segment := func() {
		h.resetSheets()
		h.runSeedBits()
	}
	segment() // warm the pools and the sheet storage
	if n := testing.AllocsPerRun(20, segment); n > 0 {
		t.Fatalf("steady-state hub segment allocates %v objects per run, want 0", n)
	}
}

// TestHubLaneArmBands runs a D > 64 segment — the lane arm, with the
// HighAccuracy parameters of a 3,901-node star — on one band and on
// four, and requires the same seed and root total: each band's lane
// scratch serves only its own slots. Under -race the four bands
// evaluate concurrently against the shared basis.
func TestHubLaneArmBands(t *testing.T) {
	defer engine.SetForceShards(0)
	p := mustParams(t, 3901, 3900, 1<<29-1, Options{HighAccuracy: true})
	var seeds [2]gf2.Vec128
	var roots [2][2]float64
	for i, bands := range []int{1, 4} {
		engine.SetForceShards(bands)
		h := synthHub(t, p, 24, 8)
		if h.k != bands {
			t.Fatalf("forced %d bands, hub has %d", bands, h.k)
		}
		seeds[i] = h.runSeedBits()
		roots[i] = h.acc[0]
	}
	if seeds[0] != seeds[1] || roots[0] != roots[1] {
		t.Fatalf("4 bands: seed %v, root %v; 1 band: seed %v, root %v", seeds[1], roots[1], seeds[0], roots[0])
	}
}
