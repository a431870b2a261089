package gf2

import "fmt"

// Coin is the biased coin of Lemma 2.5 for one node: given the shared
// seed S, the coin shows 1 iff h_S(x) mod 2^b < T, where x = ψ(v) is the
// node's input color and T = ⌈p·2^b⌉ encodes the target probability
// p = Num/Den. Properties (exactly as in the lemma):
//
//   - Pr[C=1] = T/2^b ∈ [p, p + 2^−b];
//   - p = 0 and p = 1 are represented exactly (T = 0, T = 2^b);
//   - coins of nodes with distinct ψ-colors are independent (pairwise for
//     the k=2 family).
type Coin struct {
	forms []Form // MSB-first affine forms of h_S(x) mod 2^b
	t     uint64 // threshold in [0, 2^b]
	b     int
	lo    bool // every form mask fits the low word (checked at build)
}

// NewCoin builds the coin for input color x with probability num/den and
// accuracy b bits. Requires 0 ≤ num ≤ den, den ≥ 1, and b small enough
// that num·2^b fits in a uint64.
func NewCoin(fam *Family, x uint64, b int, num, den uint64) (Coin, error) {
	if b < 1 || b > fam.Field().M() {
		return Coin{}, fmt.Errorf("gf2: coin accuracy b=%d out of range [1,%d]", b, fam.Field().M())
	}
	return NewCoinFromForms(fam.OutputForms(x, b), num, den)
}

// NewCoinFromForms builds a coin over explicit MSB-first forms (e.g. a
// window of the hash output from Family.WindowForms).
func NewCoinFromForms(forms []Form, num, den uint64) (Coin, error) {
	b := len(forms)
	if den == 0 || num > den {
		return Coin{}, fmt.Errorf("gf2: invalid coin probability %d/%d", num, den)
	}
	if b >= 63 || num > (uint64(1)<<(63-b)) {
		return Coin{}, fmt.Errorf("gf2: threshold ⌈%d·2^%d/%d⌉ would overflow", num, b, den)
	}
	// T = ⌈num·2^b/den⌉ = |{k ∈ [2^b] : k/2^b < num/den}|.
	t := (num<<b + den - 1) / den
	return Coin{forms: forms, t: t, b: b, lo: formsLo(forms)}, nil
}

// Threshold returns the integer threshold T.
func (c Coin) Threshold() uint64 { return c.t }

// Bits returns the accuracy parameter b.
func (c Coin) Bits() int { return c.b }

// Value returns the coin's outcome under a fully fixed seed.
func (c Coin) Value(seed Vec128) bool {
	return ValueFromForms(c.forms, seed) < c.t
}

// ProbOne returns Pr[C = 1 | basis event] exactly.
func (c Coin) ProbOne(bs *Basis) float64 {
	return ProbLess(bs, c.forms, c.t)
}

// ProbBothOne returns Pr[C1 = 1 ∧ C2 = 1 | basis event] exactly.
func ProbBothOne(bs *Basis, c1, c2 Coin) float64 {
	return ProbBothLess(bs, c1.forms, c1.t, c2.forms, c2.t)
}

// ProbOneAndBothOne returns (Pr[C1 = 1], Pr[C1 = 1 ∧ C2 = 1]) under the
// basis event, sharing one walk of C1's threshold decomposition — the
// per-edge evaluation of the conditional-expectation loop needs both,
// and the joint walk visits exactly the marginal's atoms anyway. Both
// values are bit-identical to the separate queries.
func ProbOneAndBothOne(bs *Basis, c1, c2 Coin) (p1, p11 float64) {
	return ProbBothLessMarginal(bs, c1.forms, c1.t, c2.forms, c2.t)
}

// ProbBothZero returns Pr[C1 = 0 ∧ C2 = 0 | basis event] exactly via
// inclusion–exclusion.
func ProbBothZero(bs *Basis, c1, c2 Coin) float64 {
	p := 1 - c1.ProbOne(bs) - c2.ProbOne(bs) + ProbBothOne(bs, c1, c2)
	// Clamp float noise at the boundaries; terms are dyadic so p is exact
	// whenever the ranks involved stay below float64's 53-bit mantissa.
	if p < 0 {
		return 0
	}
	return p
}

// CoinEvent is one conjunct of a ProbConj query: the coin shows Want.
type CoinEvent struct {
	Coin Coin
	Want bool
}

// ProbConj returns Pr[∧ᵢ (Cᵢ = Wantᵢ) | basis event] exactly for an
// arbitrary set of coins. Want = true decomposes {val < T} into
// prefix-disjoint affine events and recurses; Want = false uses
// Pr[rest ∧ C=0] = Pr[rest] − Pr[rest ∧ C=1]. Generalizes ProbBothOne to
// the multi-coin survival events of the clique/MPC multi-bit phases.
//
// ProbConj allocates nothing at steady state: its scratch bases come
// from the basis pool, and the Pr[rest ∧ C=1] term of a negated event
// flips events[0].Want in place, restoring it before the call returns.
// events is therefore scratch for the duration of the call: the caller
// sees it unchanged afterwards, but one slice must not be passed to
// concurrent ProbConj calls.
//
// The clique derandomization scores seed assignments with the lane walk
// LaneBasis.ProbConj; this scalar query is its reference.
//
//sbw:allocfree scalar reference of the lane survival queries, pinned by TestProbConjAllocFree
func ProbConj(bs *Basis, events []CoinEvent) float64 {
	if len(events) == 0 {
		return 1
	}
	ev, rest := &events[0], events[1:]
	if !ev.Want {
		pRest := ProbConj(bs, rest)
		ev.Want = true
		p := pRest - ProbConj(bs, events)
		ev.Want = false
		if p < 0 {
			return 0
		}
		return p
	}
	c := ev.Coin
	if c.t == 0 {
		return 0
	}
	if c.t >= uint64(1)<<c.b {
		return ProbConj(bs, rest)
	}
	w := cloneFromPool(bs)
	w2 := basisPool.Get().(*Basis)
	prob := 0.0
	condProb := 1.0
	for idx, fo := range c.forms {
		bitPos := c.b - 1 - idx
		tj := c.t&(1<<bitPos) != 0
		if tj {
			w.CloneInto(w2)
			switch w2.Add(fo, false) {
			case Independent:
				prob += condProb * 0.5 * ProbConj(w2, rest)
			case Redundant:
				prob += condProb * ProbConj(w2, rest)
			case Inconsistent:
			}
		}
		switch w.Add(fo, tj) {
		case Independent:
			condProb *= 0.5
		case Redundant:
		case Inconsistent:
			releaseBasis(w2)
			releaseBasis(w)
			return prob
		}
	}
	releaseBasis(w2)
	releaseBasis(w)
	return prob
}
