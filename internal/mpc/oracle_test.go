package mpc

import (
	"testing"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/prng"
)

// edgeExp1 is the per-edge reference for edgeExp: the single-bit
// conditional edge expectation of Lemma 2.2 with both coins and both
// marginals built on the spot for the one edge.
func edgeExp1(bs *gf2.Basis, fam *gf2.Family, b int, xu, k1u, lu, xv, k1v, lv uint64) float64 {
	cu, err := gf2.NewCoin(fam, xu, b, k1u, lu)
	if err != nil {
		panic(err)
	}
	cv, err := gf2.NewCoin(fam, xv, b, k1v, lv)
	if err != nil {
		panic(err)
	}
	p1u := cu.ProbOne(bs)
	p1v := cv.ProbOne(bs)
	p11 := gf2.ProbBothOne(bs, cu, cv)
	p00 := 1 - p1u - p1v + p11
	var e float64
	if p11 > 0 {
		e += p11 * (1/float64(k1u) + 1/float64(k1v))
	}
	if p00 > 0 {
		e += p00 * (1/float64(lu-k1u) + 1/float64(lv-k1v))
	}
	return e
}

// TestEdgeExpMatchesReference is the differential test of the coin and
// marginal hoist and the lane walk: with each node's coin built once,
// its lane marginals Pr[C = 1] computed once per chunk and each edge's
// joint from one lane ProbBothOne, the edge term of every lane r must
// equal the per-edge reference under base ∧ {segment = r} exactly (==
// on float64), over random bases (fixed seed bits plus general
// constraints off the segment), random segments of width 1..7 and
// random counts, the degenerate k1 = 0 and k1 = l coins included.
func TestEdgeExpMatchesReference(t *testing.T) {
	src := prng.New(91)
	nonzero := 0
	var lb gf2.LaneBasis
	var pu, p11 [64]float64
	for trial := 0; trial < 40; trial++ {
		m := 6 + src.Intn(6)
		b := 2 + src.Intn(m-1)
		fam, err := gf2.NewFamily(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		k1 := make([]uint64, n)
		l := make([]uint64, n)
		coins := make([]gf2.Coin, n)
		for v := range coins {
			l[v] = uint64(1 + src.Intn(9))
			k1[v] = uint64(src.Intn(int(l[v]) + 1))
			if coins[v], err = gf2.NewCoin(fam, uint64(v), b, k1[v], l[v]); err != nil {
				t.Fatal(err)
			}
		}
		d := fam.SeedBits()
		for k := 0; k < 6; k++ {
			segW := 1 + src.Intn(7)
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
			p1 := make([][64]float64, n)
			for c := 0; c < lb.Chunks(); c++ {
				lb.SetChunk(c)
				for v := range coins {
					lb.ProbOne(coins[v], &p1[v])
				}
				for v := 0; v < n; v++ {
					for w := v + 1; w < n; w++ {
						lb.ProbBothOne(coins[v], coins[w], &pu, &p11)
						for lane := 0; lane < lb.Lanes(); lane++ {
							r := c<<6 | lane
							bsr := bs.Clone()
							for i := 0; i < segW; i++ {
								bsr.FixBit(segStart+i, r>>i&1 == 1)
							}
							want := edgeExp1(bsr, fam, b, uint64(v), k1[v], l[v], uint64(w), k1[w], l[w])
							got := edgeExp(p1[v][lane], p1[w][lane], p11[lane], k1[v], l[v], k1[w], l[w])
							if got != want {
								t.Fatalf("trial %d basis %d (segment [%d,%d)): edge (%d,%d) lane %d = %v, reference %v",
									trial, k, segStart, segStart+segW, v, w, r, got, want)
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
	if nonzero < 500 {
		t.Fatalf("only %d nonzero edge expectations compared; the sweep is too weak", nonzero)
	}
}
