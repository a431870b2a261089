package clique

import (
	"math/bits"
	"slices"
	"testing"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/prng"
)

// edgeExp is the per-edge reference for edgeExpCoins: it computes
// E[X_e | basis] for the conflict edge (nd.id, u) over the w-bit batch
// by building every coin of every path from the exchanged leaf counts
// on the spot. Survival requires both endpoints to pick the same path,
// and each path contributes the reciprocal surviving list sizes.
func (st *cliqueRun) edgeExp(bs *gf2.Basis, fam *gf2.Family, nd *clqNode, u, w int) float64 {
	m := fam.Field().M()
	ku := nd.nbrK[nd.id]
	kv := nd.nbrK[u]
	if kv == nil {
		return 0
	}
	total := 0.0
	events := make([]gf2.CoinEvent, 0, 2*w)
	for p := 0; p < 1<<w; p++ {
		if ku[p] == 0 || kv[p] == 0 {
			continue
		}
		events = events[:0]
		ok := true
		for t := 0; t < w && ok; t++ {
			prefix := p >> uint(w-t) // first t bits of p
			want := p>>uint(w-1-t)&1 == 1
			for side, id := range [2]int{nd.id, u} {
				counts := ku
				if side == 1 {
					counts = kv
				}
				den := subtreeCount(counts, w, prefix, t)
				num := subtreeCount(counts, w, prefix<<1|1, t+1)
				if den == 0 {
					ok = false
					break
				}
				coin, err := gf2.NewCoinFromForms(
					fam.WindowForms(uint64(id), m-(t+1)*st.b, st.b), num, den)
				if err != nil {
					panic(err)
				}
				events = append(events, gf2.CoinEvent{Coin: coin, Want: want})
			}
		}
		if !ok {
			continue
		}
		if pr := gf2.ProbConj(bs, events); pr > 0 {
			total += pr * (1/float64(ku[p]) + 1/float64(kv[p]))
		}
	}
	return total
}

// scalarEdgeExpCoins is the scalar reference for the lane walk of
// edgeExpCoins: E[X_e | bs] for a conflict edge over the w-bit batch,
// one ProbConj per surviving path over coins taken from the endpoints'
// coin tables. events is the ProbConj scratch buffer; the possibly grown
// buffer is returned for reuse.
func scalarEdgeExpCoins(bs *gf2.Basis, ku, kv []uint64, cu, cv []batchCoin, w int, events []gf2.CoinEvent) (float64, []gf2.CoinEvent) {
	if kv == nil {
		return 0, events
	}
	total := 0.0
	for p := 0; p < 1<<w; p++ {
		if ku[p] == 0 || kv[p] == 0 {
			continue
		}
		events = events[:0]
		ok := true
		for t := 0; t < w && ok; t++ {
			i := 1<<t - 1 + p>>uint(w-t) // entry of p's first t bits
			want := p>>uint(w-1-t)&1 == 1
			for _, tab := range [2][]batchCoin{cu, cv} {
				if tab[i].den == 0 {
					ok = false
					break
				}
				events = append(events, gf2.CoinEvent{Coin: tab[i].coin, Want: want})
			}
		}
		if !ok {
			continue
		}
		if pr := gf2.ProbConj(bs, events); pr > 0 {
			total += pr * (1/float64(ku[p]) + 1/float64(kv[p]))
		}
	}
	return total, events
}

// TestEdgeExpCoinsMatchesReference is the differential test of the coin
// hoist and the lane walk: over random candidate sets (so random leaf
// counts, empty subtrees included), random conflict graphs, batch widths
// w ∈ {1,2,3}, random seed segments of width 1..7 and random bases with
// fixed seed bits and general constraints off the segment, every lane r
// of edgeExpCoins must equal the scalar coin-table reference under base
// ∧ {segment = r}, which must in turn equal the per-edge reference —
// exactly (== on float64). It also checks the premise that lets an
// owner read its neighbor's coin table: the counts the owner received,
// nbrK[u], are u's own leafCounts.
func TestEdgeExpCoinsMatchesReference(t *testing.T) {
	src := prng.New(77)
	nonzero := 0
	for trial := 0; trial < 60; trial++ {
		w := 1 + trial%3
		n := 5 + src.Intn(8)
		logC := w + src.Intn(3)
		hi := w - 1 + src.Intn(logC-w+1)
		b := 3 + src.Intn(3)
		m := max(bits.Len(uint(n-1)), w*b)
		fam, err := gf2.NewFamily(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*clqNode, n)
		for v := range nodes {
			nd := &clqNode{id: v, alive: src.Intn(8) != 0}
			if nd.alive {
				for c := 0; c < 1<<logC; c++ {
					if src.Intn(3) == 0 {
						nd.cands = append(nd.cands, uint32(c))
					}
				}
				if len(nd.cands) == 0 {
					nd.cands = []uint32{uint32(src.Intn(1 << logC))}
				}
			}
			nodes[v] = nd
		}
		for v := 0; v < n; v++ {
			for u := v + 1; u < n; u++ {
				if nodes[v].alive && nodes[u].alive && src.Intn(2) == 0 {
					nodes[v].conflict = append(nodes[v].conflict, int32(u))
					nodes[u].conflict = append(nodes[u].conflict, int32(v))
				}
			}
		}
		for _, nd := range nodes {
			slices.Sort(nd.conflict)
		}
		st := &cliqueRun{sim: NewSim(n, 0), nodes: nodes, n: n, b: b}
		if err := st.exchangeCounts(fam, hi, w); err != nil {
			t.Fatal(err)
		}
		st.sim.Close()
		for v, nd := range nodes {
			for _, u := range nd.conflict {
				if !slices.Equal(nd.nbrK[int(u)], nodes[u].nbrK[int(u)]) {
					t.Fatalf("trial %d: node %d received counts %v from %d, whose own are %v",
						trial, v, nd.nbrK[int(u)], u, nodes[u].nbrK[int(u)])
				}
			}
		}
		events := make([]gf2.CoinEvent, 0, 2*w)
		var lb gf2.LaneBasis
		var got, pr [64]float64
		d := fam.SeedBits()
		for k := 0; k < 4; k++ {
			segW := 1 + src.Intn(min(7, d))
			segStart := src.Intn(d - segW + 1)
			seg := (uint64(1)<<segW - 1) << segStart
			bs := gf2.NewBasis()
			for i := 0; i < d; i++ {
				if seg>>i&1 == 0 && src.Intn(3) == 0 {
					bs.FixBit(i, src.Bool())
				}
			}
			if k%2 == 1 {
				bs.Add(gf2.Form{Mask: gf2.VecFromUint64(src.Uint64() & (1<<d - 1) &^ seg)}, src.Bool())
			}
			if err := lb.Reset(bs, segStart, segW); err != nil {
				t.Fatal(err)
			}
			bases := make([]*gf2.Basis, 1<<segW)
			for r := range bases {
				bases[r] = bs.Clone()
				for i := 0; i < segW; i++ {
					bases[r].FixBit(segStart+i, r>>i&1 == 1)
				}
			}
			for v, nd := range nodes {
				for _, u32 := range nd.conflict {
					u := int(u32)
					if u < v {
						continue
					}
					for c := 0; c < lb.Chunks(); c++ {
						lb.SetChunk(c)
						events = edgeExpCoins(&lb, &got, &pr, nd.nbrK[v], nd.nbrK[u], nd.coins, nodes[u].coins, w, events)
						for l := 0; l < lb.Lanes(); l++ {
							r := c<<6 | l
							var want float64
							want, events = scalarEdgeExpCoins(bases[r], nd.nbrK[v], nd.nbrK[u], nd.coins, nodes[u].coins, w, events)
							// The per-edge reference rebuilds every coin; every
							// 8th lane keeps the chain to it checked.
							if r%8 == 0 {
								if ref := st.edgeExp(bases[r], fam, nd, u, w); want != ref {
									t.Fatalf("trial %d (w=%d, basis %d): edge (%d,%d) scalar %v, per-edge reference %v", trial, w, k, v, u, want, ref)
								}
							}
							if got[l] != want {
								t.Fatalf("trial %d (w=%d, basis %d, segment [%d,%d)): edge (%d,%d) lane %d = %v, scalar %v",
									trial, w, k, segStart, segStart+segW, v, u, r, got[l], want)
							}
							if want != 0 {
								nonzero++
							}
						}
					}
				}
			}
		}
	}
	if nonzero < 100 {
		t.Fatalf("only %d nonzero edge expectations compared; the sweep is too weak", nonzero)
	}
}
