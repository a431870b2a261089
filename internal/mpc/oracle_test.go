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
// marginal hoist: with each node's coin built once and its marginal
// Pr[C = 1] computed once per basis, the edge term must equal the
// per-edge reference exactly (== on float64) over random bases (fixed
// seed bits plus general constraints) and random counts, the degenerate
// k1 = 0 and k1 = l coins included.
func TestEdgeExpMatchesReference(t *testing.T) {
	src := prng.New(91)
	nonzero := 0
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
		for k := 0; k < 6; k++ {
			bs := gf2.NewBasis()
			for i := 0; i < fam.SeedBits(); i++ {
				if src.Intn(3) == 0 {
					bs.FixBit(i, src.Bool())
				}
			}
			if k%2 == 1 {
				bs.Add(gf2.Form{Mask: gf2.VecFromUint64(src.Uint64() & (1<<fam.SeedBits() - 1))}, src.Bool())
			}
			p1 := make([]float64, n)
			for v := range coins {
				p1[v] = coins[v].ProbOne(bs)
			}
			for v := 0; v < n; v++ {
				for w := v + 1; w < n; w++ {
					want := edgeExp1(bs, fam, b, uint64(v), k1[v], l[v], uint64(w), k1[w], l[w])
					got := edgeExp(p1[v], p1[w], gf2.ProbBothOne(bs, coins[v], coins[w]), k1[v], l[v], k1[w], l[w])
					if got != want {
						t.Fatalf("trial %d basis %d: edge (%d,%d) = %v, reference %v", trial, k, v, w, got, want)
					}
					if want != 0 {
						nonzero++
					}
				}
			}
		}
	}
	if nonzero < 500 {
		t.Fatalf("only %d nonzero edge expectations compared; the sweep is too weak", nonzero)
	}
}
