package gf2

import (
	"math/bits"
	"sync"
)

// SplitBasis evaluates probability queries under *both* values of one
// free seed bit at once — the inner question of the method of
// conditional expectations, which needs E[X | S, bit=0] and
// E[X | S, bit=1] for every candidate bit.
//
// The observation making one pass suffice: the two conditioned bases
// differ only in the *value* of the split bit, never in which bits are
// fixed, so the mask side of every Gaussian reduction — the eliminations
// performed, the Independent/zero-residual classification, and therefore
// every 2^−rank conditional factor — is identical for the two branches.
// Only the affine right-hand sides diverge, by the parity of the split
// bit's occurrences in the reduction. The walks therefore carry one
// shared mask per constraint and a right-hand-side *pair* packed in a
// byte, evaluating both branches with the mask work of one.
//
// The queries are the block kernels (block.go): they read residuals
// from a FormSheet folded with the basis's fixed bits, so a SplitBasis
// holds only the split bit and the walk scratch. Each branch's
// classifications, accumulated terms, and term order are exactly those
// of evaluating the branch alone on a Basis with the bit fixed, so all
// results are bit-identical to the two-pass evaluation
// (TestFormSheetBlockMatchesScalar, TestSplitMatchesFixedBit).
type SplitBasis struct {
	split Vec128 // unit vector at the split bit

	// Walk scratch, pooled with the basis so the hot loop never
	// zero-initializes stack arrays (b ≤ m ≤ 32 bounds every index).
	// resLoU holds C1's residuals for the joint walks, so C2's residuals
	// in resLo survive the walk.
	resLo   [64]loRow
	resLoU  [64]loRow
	fuLo    loRows
	innerLo loRows
}

// loRow is a single-word row or residual of the walks: the two branch
// right-hand sides pack into one byte (bit 0 = branch 0, bit 1 =
// branch 1), so a row elimination is two XORs.
type loRow struct {
	mask uint64
	rhs  uint8
}

// loRows is an echelon system over single-word masks with a pivot
// index: pivs is the OR of all pivot bits and pivMap[b] the row whose
// pivot is bit b (valid only where pivs has the bit, so reuse needs no
// clearing). Reduction is pivot-driven — each step eliminates the
// lowest pivot present, which strictly clears bits from the bottom up,
// so it terminates and yields the canonical residual of the span; no
// time is spent scanning rows that cannot hit. Residual uniqueness
// makes the result identical to the insertion-order scan.
type loRows struct {
	rows   [64]loRow
	n      int
	pivs   uint64
	pivMap [64]uint8
}

func (st *loRows) reset() {
	st.n = 0
	st.pivs = 0
}

// reduce eliminates every stored row from (m, rhs).
func (st *loRows) reduce(m uint64, rhs uint8) (uint64, uint8) {
	for {
		pm := m & st.pivs
		if pm == 0 {
			return m, rhs
		}
		r := &st.rows[st.pivMap[bits.TrailingZeros64(pm)]]
		m ^= r.mask
		rhs ^= r.rhs
	}
}

// add inserts a fully reduced, non-zero residual as a new row.
func (st *loRows) add(m uint64, rhs uint8) {
	piv := m & -m
	st.rows[st.n] = loRow{mask: m, rhs: rhs}
	st.pivMap[bits.TrailingZeros64(piv)] = uint8(st.n)
	st.pivs |= piv
	st.n++
}

var splitPool = sync.Pool{New: func() any { return new(SplitBasis) }}

// Split conditions the basis on seed bit `bit` symbolically, returning a
// SplitBasis whose branch 0 is "basis ∧ bit=0" and branch 1 is
// "basis ∧ bit=1". It requires a basis of fixed bits only, with the bit
// among the free ones — exactly the state of the conditional-expectation
// loop's candidate bit (bits are examined in order and only earlier ones
// are fixed); ok reports whether that held. Release the result with
// Release when done.
//
//sbw:allocfree Theorem 1.1 phase-step kernel: one Split per seed bit per node per phase
func (bs *Basis) Split(bit int) (sb *SplitBasis, ok bool) {
	u := UnitVec(bit)
	if len(bs.rows) > 0 || !bs.fixedMask.And(u).IsZero() {
		return nil, false
	}
	sb = splitPool.Get().(*SplitBasis)
	sb.split = u
	return sb, true
}

// Release returns the SplitBasis (and its scratch) to the pool.
func (sb *SplitBasis) Release() { splitPool.Put(sb) }

// Clone returns a pooled copy of the split basis: the same conditioning
// with its own walk scratch, so several goroutines can evaluate queries
// against one split concurrently, one copy each. Release it when done.
//
//sbw:allocfree phase-step kernel: clone target comes from the split pool
func (sb *SplitBasis) Clone() *SplitBasis {
	dst := splitPool.Get().(*SplitBasis)
	dst.split = sb.split
	return dst
}

// loInnerWalk is the dual-branch ProbLess walk over precomputed
// residuals: res[i] is forms[i] reduced against everything below this
// walk (the conditioned basis and, for the joint query, the outer
// walk's accumulated prefix rows). alive packs the branch liveness the
// same way the rhs bytes pack the right-hand sides. atom, when hasAtom,
// is one fully reduced constraint seeding the system. A branch's terms
// and their order are those of ProbLess on the basis with the split bit
// fixed to the branch's value.
func loInnerWalk(st *loRows, res []loRow, t uint64, atomMask uint64, atomRhs uint8, hasAtom bool, alive uint8) (p0, p1 float64) {
	b := len(res)
	if t == 0 {
		return 0, 0
	}
	if t >= uint64(1)<<b {
		if alive&1 != 0 {
			p0 = 1
		}
		if alive&2 != 0 {
			p1 = 1
		}
		return p0, p1
	}
	st.reset()
	if hasAtom {
		st.add(atomMask, atomRhs)
	}
	condProb := 1.0
	for idx := 0; idx < b; idx++ {
		m, rhs := st.reduce(res[idx].mask, res[idx].rhs)
		tj := t&(1<<(b-1-idx)) != 0
		if tj {
			if m == 0 {
				if alive&1 != 0 && rhs&1 == 0 {
					p0 += condProb
				}
				if alive&2 != 0 && rhs&2 == 0 {
					p1 += condProb
				}
			} else {
				half := condProb * 0.5
				if alive&1 != 0 {
					p0 += half
				}
				if alive&2 != 0 {
					p1 += half
				}
			}
		}
		// Continue branch: prefix bit equals tj.
		rr := rhs
		if tj {
			rr ^= 3
		}
		if m == 0 {
			alive &^= rr
			if alive == 0 {
				return p0, p1
			}
		} else {
			st.add(m, rr)
			condProb *= 0.5
		}
	}
	return p0, p1
}

// loJointWalkResid is the joint walk over C1's threshold
// decomposition: resU holds C1's residuals against the conditioned basis
// (they depend only on the basis, never on the prefix rows the walk
// accumulates, so they are computed up front), and C2's residuals in
// res are updated in step with the accumulated prefix rows. A branch's
// terms and their order are those of ProbOneAndBothOne on the basis
// with the split bit fixed.
//
//sbw:allocfree phase-step kernel: the joint walk of EdgePairBlock
func (sb *SplitBasis) loJointWalkResid(resU []loRow, tu uint64, res []loRow, tv uint64, fvWalkable bool) (p1u0, p110, p1u1, p111 float64) {
	bu, bv := len(resU), len(res)
	fuRows := &sb.fuLo
	fuRows.reset()
	alive := uint8(3)
	condProb := 1.0
	for idx := range resU {
		m, rhs := fuRows.reduce(resU[idx].mask, resU[idx].rhs)
		tj := tu&(1<<(bu-1-idx)) != 0
		if tj {
			if m == 0 {
				var e uint8
				if alive&1 != 0 && rhs&1 == 0 {
					e |= 1
				}
				if alive&2 != 0 && rhs&2 == 0 {
					e |= 2
				}
				if e != 0 {
					q0, q1 := loInnerWalk(&sb.innerLo, res, tv, 0, 0, false, e)
					if e&1 != 0 {
						p1u0 += condProb
						p110 += condProb * q0
					}
					if e&2 != 0 {
						p1u1 += condProb
						p111 += condProb * q1
					}
				}
			} else {
				half := condProb * 0.5
				q0, q1 := loInnerWalk(&sb.innerLo, res, tv, m, rhs, true, alive)
				if alive&1 != 0 {
					p1u0 += half
					p110 += half * q0
				}
				if alive&2 != 0 {
					p1u1 += half
					p111 += half * q1
				}
			}
		}
		// Continue branch: prefix bit equals tj.
		rr := rhs
		if tj {
			rr ^= 3
		}
		if m == 0 {
			alive &^= rr
			if alive == 0 {
				return p1u0, p110, p1u1, p111
			}
		} else {
			piv := m & -m
			fuRows.add(m, rr)
			condProb *= 0.5
			if fvWalkable {
				for i := 0; i < bv; i++ {
					if res[i].mask&piv != 0 {
						res[i].mask ^= m
						res[i].rhs ^= rr
					}
				}
			}
		}
	}
	return p1u0, p110, p1u1, p111
}
