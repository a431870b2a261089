package gf2

import "math/bits"

// FormSheet lays the residuals of up to 64 single-word forms out as
// bit-sliced planes, one lane per form, so the conditional-expectation
// loop can maintain every residual of a node's owned conflict edges
// incrementally instead of re-deriving them per seed bit:
//
//   - lane[l] is lane l's residual mask (the form's mask minus every
//     seed bit folded so far);
//   - rhs is the branch-0 right-hand-side plane: bit l is lane l's
//     residual constant, Const_l ⊕ ⟨folded bits of mask_l, their chosen
//     values⟩;
//   - bitp[b] is the transposed residual plane of seed bit b: bit l is
//     set iff lane l's residual mask still contains b. Sealing a sheet
//     builds the planes with one 64×64 bit-matrix transpose.
//
// Fixing seed bit j to value r then folds into every lane at once:
// rhs ^= bitp[j] when r (one masked-XOR pass over the whole sheet),
// the affected lanes drop bit j, and bitp[j] clears — per-bit work
// O(planes), not O(edges·forms·words). The current split bit j is the
// one bit handled at read time: a lane's branch-1 right-hand side is
// its branch-0 bit XOR its bitp[j] bit, which is how one word op
// carries both β branches of the whole block.
//
// A sheet represents residuals against the *fixed bits* of a basis,
// which is all a phase basis holds (Split refuses any other). Sheets
// hold whatever form groups the caller lays out — the phase loop packs
// a node's own coin plus the coins of its owned conflict edges'
// neighbors.
type FormSheet struct {
	lane [64]uint64
	bitp [64]uint64
	rhs  uint64
	n    int
}

// Reset empties the sheet for reuse.
func (s *FormSheet) Reset() {
	*s = FormSheet{}
}

// Lanes returns the number of lanes in use.
func (s *FormSheet) Lanes() int { return s.n }

// Free returns the number of unused lanes.
func (s *FormSheet) Free() int { return 64 - s.n }

// AddForms appends one form group (a coin's forms) as consecutive
// lanes and returns the first lane. It fails — leaving the sheet
// unchanged — if the group does not fit or any mask has high bits
// (sheets are single-word, like the lo walks they feed).
func (s *FormSheet) AddForms(fs []Form) (lane int, ok bool) {
	if len(fs) > 64-s.n {
		return 0, false
	}
	for i := range fs {
		if fs[i].Mask.Hi != 0 {
			return 0, false
		}
	}
	lane = s.n
	for i := range fs {
		l := lane + i
		s.lane[l] = fs[i].Mask.Lo
		if fs[i].Const {
			s.rhs |= uint64(1) << l
		}
	}
	s.n += len(fs)
	return lane, true
}

// Seal builds the transposed residual planes from the lanes. Call it
// once after the last AddForms and before the first Fix or gather.
func (s *FormSheet) Seal() {
	s.bitp = s.lane
	transpose64(&s.bitp)
}

// Fix folds the choice "seed bit j = val" into every residual of the
// sheet: one masked-XOR pass over the right-hand-side plane, and the
// lanes still containing bit j drop it. After the fold the sheet's
// residuals are exactly the forms reduced against a basis with the
// same bits fixed to the same values.
//
//sbw:allocfree phase-step kernel: per-seed-bit incremental plane fold
func (s *FormSheet) Fix(j int, val bool) {
	if j >= 64 {
		return // single-word sheets never contain bits ≥ 64
	}
	p := s.bitp[j]
	if p == 0 {
		return
	}
	if val {
		s.rhs ^= p
	}
	bit := uint64(1) << j
	for rest := p; rest != 0; rest &= rest - 1 {
		s.lane[bits.TrailingZeros64(rest)] &^= bit
	}
	s.bitp[j] = 0
}

// transpose64 transposes the 64×64 bit matrix a in place (row r bit c
// becomes row c bit r) by recursive block swaps — the classic
// power-of-two transpose, ⌈log 64⌉ passes of masked shifts.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
	}
}

// BlockCoin locates one coin's forms on a FormSheet.
type BlockCoin struct {
	Lane int    // first lane of the coin's form group
	B    int    // number of forms (Coin.Bits)
	T    uint64 // threshold (Coin.Threshold)
}

// ProbPair is Pr[C = 1] under branch 0 and branch 1 of a split bit.
type ProbPair struct {
	P0, P1 float64
}

// gatherResid reads b residuals starting at lane from the sheet, under
// this SplitBasis's split bit: the mask is the lane minus the split
// bit, branch 0's right-hand side is the lane's rhs-plane bit, and
// branch 1 differs by the lane's split-plane bit. The sheet must have
// folded exactly the split basis's fixed bits.
//
//sbw:allocfree phase-step kernel: residual gather feeding the block walks
func (sb *SplitBasis) gatherResid(sheet *FormSheet, lane, b int, out []loRow) {
	split := uint(bits.TrailingZeros64(sb.split.Lo))
	for i := 0; i < b; i++ {
		l := uint(lane + i)
		w := sheet.lane[l]
		r0 := uint8(sheet.rhs >> l & 1)
		out[i] = loRow{mask: w &^ (uint64(1) << split), rhs: r0 | (r0^uint8(w>>split&1))<<1}
	}
}

// ProbOnePairBlock returns Pr[C = 1] under both branches for a block of
// coins laid out on a sheet: out[k] receives both branch marginals of
// reqs[k]. The phase loop uses it to fill every pending marginal-memo
// key of a band in one call. Requires a low-word split (split bit < 64)
// and a sheet folded in step with the split basis; each result is
// bit-identical to Coin.ProbOne on the basis with the split bit fixed.
//
//sbw:allocfree phase-step kernel: batched neighbor marginals, the memo batch-fill path
func (sb *SplitBasis) ProbOnePairBlock(sheet *FormSheet, reqs []BlockCoin, out []ProbPair) {
	for k := range reqs {
		rq := reqs[k]
		if rq.T == 0 {
			out[k] = ProbPair{}
			continue
		}
		if rq.T >= uint64(1)<<rq.B {
			out[k] = ProbPair{P0: 1, P1: 1}
			continue
		}
		res := sb.resLo[:rq.B]
		sb.gatherResid(sheet, rq.Lane, rq.B, res)
		p0, p1 := loInnerWalk(&sb.innerLo, res, rq.T, 0, 0, false, 3)
		out[k] = ProbPair{P0: p0, P1: p1}
	}
}

// EdgePairBlock returns C1's marginal and the joint Pr[C1 = 1 ∧ C2 = 1]
// under both branches, with both coins read from a sheet and C2's
// marginal (pv0/pv1) supplied by the caller — typically from the memo
// ProbOnePairBlock just filled; the C1 ≡ 1 boundary returns it as the
// joint. Preconditions as for ProbOnePairBlock; results are
// bit-identical to ProbOneAndBothOne on the basis with the split bit
// fixed.
//
//sbw:allocfree phase-step kernel: batched joint edge probabilities
func (sb *SplitBasis) EdgePairBlock(sheet *FormSheet, cu, cv BlockCoin, pv0, pv1 float64) (p1u0, p110, p1u1, p111 float64) {
	if cu.T == 0 {
		return 0, 0, 0, 0
	}
	if cu.T >= uint64(1)<<cu.B {
		return 1, pv0, 1, pv1
	}
	if cv.T == 0 {
		resU := sb.resLo[:cu.B]
		sb.gatherResid(sheet, cu.Lane, cu.B, resU)
		p1u0, p1u1 = loInnerWalk(&sb.innerLo, resU, cu.T, 0, 0, false, 3)
		return p1u0, 0, p1u1, 0
	}
	resU := sb.resLoU[:cu.B]
	sb.gatherResid(sheet, cu.Lane, cu.B, resU)
	res := sb.resLo[:cv.B]
	fvWalkable := cv.T < uint64(1)<<cv.B
	if fvWalkable {
		sb.gatherResid(sheet, cv.Lane, cv.B, res)
	}
	return sb.loJointWalkResid(resU, cu.T, res, cv.T, fvWalkable)
}
