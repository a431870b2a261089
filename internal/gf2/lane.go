package gf2

import (
	"errors"
	"math/bits"
)

// LaneBasis evaluates probability queries under up to 64 assignments of
// one seed segment at once — the inner question of the segment-wise
// derandomization of Theorems 1.3–1.5, which scores every assignment r
// of the segment bits [segStart, segStart+segW) under base ∧ {segment =
// r}.
//
// The observation making one pass suffice is SplitBasis's, widened from
// two branches to 64 lanes: the conditioned bases differ only in the
// *values* of the segment bits, never in which bits are fixed, so the
// mask side of every Gaussian reduction — the residual, the
// Independent/zero-residual classification and every 2^−rank factor —
// is shared by all lanes. Only the right-hand side differs, and only by
// parity(form_seg & r). A LaneBasis therefore stores one mask structure
// and carries a uint64 right-hand side per row, bit k for lane k.
//
// Lane k of chunk c is the assignment r = c·64 + k. Segments wider than
// six bits are scored in 2^(segW−6) chunks: within a chunk the segment
// bits above the low six are fixed scalars (SetChunk), the low six vary
// across the lanes.
//
// Rows pushed by a walk are never modified afterwards, unit residuals
// included (no compressed fixed bits, no back-substitution), so the rows
// form a stack: a nested walk pushes its constraints and truncates back
// on return, and no walk clones a basis. Reduction modulo an affine span
// with a fixed pivot set is unique, so every residual and right-hand
// side equals the one the scalar Basis computes with its compressed
// representation.
//
// Each lane performs exactly the floating-point operations of the scalar
// walk on base ∧ {segment = r}, in the same order, so every lane value is
// bit-identical to the scalar query (TestLanesMatchScalar, FuzzLaneWalk).
// A LaneBasis is not safe for concurrent use; the zero value is ready for
// Reset.
type LaneBasis struct {
	elim     Vec128 // base fixed bits plus the whole segment: folded, not row-reduced
	vals     Vec128 // base fixed values plus this chunk's scalar segment bits
	baseVals Vec128 // base fixed values alone
	segStart int
	segW     int
	lanes    uint64 // lanes of a chunk: the low min(2^segW, 64) bits
	rows     []laneRow
	baseRows int // rows copied from the base; walks push above them

	// frames are per-recursion-level lane arrays for the nested walks;
	// frames[depth] is the next free one. Pointers keep each array in
	// place while the slice grows.
	frames []*[64]float64
	depth  int
}

type laneRow struct {
	mask Vec128
	piv  Vec128 // unit vector at the pivot (lowest set bit of mask)
	rhs  uint64 // lane k: right-hand side under lane k's assignment
}

// laneParity[s] has bit k = parity(s & k): lane k's contribution of the
// low six segment bits of a form whose segment part is s.
var laneParity = func() (tab [64]uint64) {
	for s := range tab {
		for k := 0; k < 64; k++ {
			if bits.OnesCount64(uint64(s&k))&1 == 1 {
				tab[s] |= 1 << k
			}
		}
	}
	return tab
}()

// laneWord returns the all-lanes word of a scalar right-hand side.
func laneWord(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// Reset conditions the lane basis on bs and the segment [segStart,
// segStart+segW), selecting chunk 0. bs is copied, not retained. The
// segment must be free in bs: no fixed bit and no row may touch it.
// Production bases hold fixed bits of earlier segments only; a base
// that constrains the segment is an error, not a slow path.
func (lb *LaneBasis) Reset(bs *Basis, segStart, segW int) error {
	if segW < 1 || segW > 62 || segStart < 0 || segStart+segW > 128 {
		return errors.New("gf2: lane segment out of range")
	}
	var seg Vec128
	for t := 0; t < segW; t++ {
		seg = seg.WithBit(segStart+t, true)
	}
	if !bs.fixedMask.And(seg).IsZero() {
		return errors.New("gf2: lane segment overlaps fixed bits of the base")
	}
	lb.rows = lb.rows[:0]
	for i := range bs.rows {
		r := &bs.rows[i]
		if !r.mask.And(seg).IsZero() {
			return errors.New("gf2: lane segment overlaps a base row")
		}
		lb.rows = append(lb.rows, laneRow{mask: r.mask, piv: UnitVec(r.pivot), rhs: laneWord(r.rhs)})
	}
	lb.baseRows = len(lb.rows)
	lb.elim = bs.fixedMask.Xor(seg)
	lb.baseVals = bs.fixedVals
	lb.segStart, lb.segW = segStart, segW
	lb.lanes = ^uint64(0)
	if segW < 6 {
		lb.lanes = uint64(1)<<(1<<segW) - 1
	}
	lb.SetChunk(0)
	return nil
}

// Lanes returns the number of lanes per chunk, min(2^segW, 64).
func (lb *LaneBasis) Lanes() int { return bits.OnesCount64(lb.lanes) }

// Chunks returns the number of 64-lane chunks of the segment,
// 2^max(segW−6, 0).
func (lb *LaneBasis) Chunks() int { return 1 << max(lb.segW-6, 0) }

// SetChunk selects chunk c, 0 ≤ c < Chunks(): lane k then scores the
// assignment c·64 + k, so the segment bits above the low six hold the
// bits of c.
func (lb *LaneBasis) SetChunk(c int) {
	lb.vals = lb.baseVals
	if lb.segW > 6 {
		lb.vals = lb.vals.orAt(lb.segStart+6, uint64(c))
	}
}

// reduce eliminates the base, the segment and every pushed row from
// fo, returning the shared residual mask and each lane's right-hand
// side of the event "form = false".
//
//sbw:allocfree lane kernel: per-form residual reduction, innermost loop of the segment scoring
func (lb *LaneBasis) reduce(fo Form) (Vec128, uint64) {
	m := fo.Mask
	rhs := laneWord(fo.Const != m.And(lb.vals).Parity())
	rhs ^= laneParity[m.Extract(lb.segStart, min(lb.segW, 6))]
	m = m.AndNot(lb.elim)
	for i := range lb.rows {
		r := &lb.rows[i]
		if m.Lo&r.piv.Lo|m.Hi&r.piv.Hi != 0 {
			m = m.Xor(r.mask)
			rhs ^= r.rhs
		}
	}
	return m, rhs
}

// push adds a reduced, non-zero residual as a row.
//
//sbw:allocfree lane kernel: row insertion on the walk stack
func (lb *LaneBasis) push(mask Vec128, rhs uint64) {
	piv := Vec128{Lo: mask.Lo & -mask.Lo}
	if mask.Lo == 0 {
		piv.Hi = mask.Hi & -mask.Hi
	}
	lb.rows = append(lb.rows, laneRow{mask: mask, piv: piv, rhs: rhs}) //sbw:allocok amortized: the row stack keeps its capacity across walks and Resets
}

// frame returns a free lane array for a nested walk; release returns it.
//
//sbw:allocfree lane kernel: nested-walk scratch, grown once per depth
func (lb *LaneBasis) frame() *[64]float64 {
	if lb.depth == len(lb.frames) {
		lb.frames = append(lb.frames, new([64]float64)) //sbw:allocok amortized: one array per recursion depth, kept for the life of the LaneBasis
	}
	f := lb.frames[lb.depth]
	lb.depth++
	return f
}

func (lb *LaneBasis) release() { lb.depth-- }

func setLanes(out *[64]float64, live uint64, v float64) {
	for m := live; m != 0; m &= m - 1 {
		out[bits.TrailingZeros64(m)] = v
	}
}

func addLanes(out *[64]float64, live uint64, v float64) {
	for m := live; m != 0; m &= m - 1 {
		out[bits.TrailingZeros64(m)] += v
	}
}

// addScaled adds v·sub[k] to out[k] for every lane k in live.
func addScaled(out, sub *[64]float64, live uint64, v float64) {
	for m := live; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		out[k] += v * sub[k]
	}
}

// ProbOne sets out[k] = Pr[C = 1 | base ∧ segment = lane k's
// assignment] for every lane of the current chunk, bit-identical to the
// scalar Coin.ProbOne. Every lane query leaves the lanes at and above
// Lanes() as they were.
//
//sbw:allocfree lane kernel: one call per coin per chunk of a seed segment
func (lb *LaneBasis) ProbOne(c Coin, out *[64]float64) {
	lb.less(c.forms, c.t, lb.lanes, out)
}

// ProbBothOne sets p1[k] = Pr[C1 = 1] and p11[k] = Pr[C1 = 1 ∧ C2 = 1]
// under lane k's assignment, bit-identical to ProbOneAndBothOne.
//
//sbw:allocfree lane kernel: one call per conflict edge per chunk of a seed segment
func (lb *LaneBasis) ProbBothOne(c1, c2 Coin, p1, p11 *[64]float64) {
	lb.bothLess(c1.forms, c1.t, c2.forms, c2.t, lb.lanes, p1, p11)
}

// ProbConj sets out[k] = Pr[∧ᵢ (Cᵢ = Wantᵢ)] under lane k's assignment,
// bit-identical to the scalar ProbConj. Like it, it flips a negated
// event's Want in place during the call and restores it before
// returning.
//
//sbw:allocfree lane kernel: one call per (owned edge, path) per chunk of a seed segment
func (lb *LaneBasis) ProbConj(events []CoinEvent, out *[64]float64) {
	lb.conj(events, lb.lanes, out)
}

// less is the ProbLess walk over the lanes in live (probLessInPlace per
// lane): a lane whose prefix constraints turn inconsistent stops
// accumulating, as the scalar walk returns. Rows it pushes are popped
// before it returns.
//
//sbw:allocfree lane kernel: threshold walk, the leaf of every lane query
func (lb *LaneBasis) less(forms []Form, t uint64, live uint64, out *[64]float64) {
	b := len(forms)
	if t == 0 {
		setLanes(out, live, 0)
		return
	}
	if t >= uint64(1)<<b {
		setLanes(out, live, 1)
		return
	}
	top := len(lb.rows)
	setLanes(out, live, 0)
	condProb := 1.0
	for idx, fo := range forms {
		tj := t&(1<<(b-1-idx)) != 0
		mask, rhs := lb.reduce(fo)
		if mask.IsZero() {
			if tj {
				addLanes(out, live&^rhs, condProb) // bit forced to 0: event implied
				live &= rhs
			} else {
				live &^= rhs
			}
			if live == 0 {
				break
			}
			continue
		}
		if tj {
			addLanes(out, live, condProb*0.5)
		}
		lb.push(mask, rhs^laneWord(tj))
		condProb *= 0.5
	}
	lb.rows = lb.rows[:top]
}

// bothLess is the ProbBothLessMarginal walk over the lanes in live.
//
//sbw:allocfree lane kernel: joint threshold walk of one conflict edge
func (lb *LaneBasis) bothLess(fu []Form, tu uint64, fv []Form, tv uint64, live uint64, pu, pboth *[64]float64) {
	bu := len(fu)
	switch {
	case tu == 0:
		setLanes(pu, live, 0)
		setLanes(pboth, live, 0)
		return
	case tv == 0:
		if tu >= uint64(1)<<bu {
			setLanes(pu, live, 1)
		} else {
			lb.less(fu, tu, live, pu)
		}
		setLanes(pboth, live, 0)
		return
	case tu >= uint64(1)<<bu:
		setLanes(pu, live, 1)
		lb.less(fv, tv, live, pboth)
		return
	}
	top := len(lb.rows)
	sub := lb.frame()
	setLanes(pu, live, 0)
	setLanes(pboth, live, 0)
	condProb := 1.0
	for idx, fo := range fu {
		tj := tu&(1<<(bu-1-idx)) != 0
		mask, rhs := lb.reduce(fo)
		if mask.IsZero() {
			if tj {
				// Event E: prefix equal ∧ this bit = 0, implied where rhs = 0.
				if hit := live &^ rhs; hit != 0 {
					addLanes(pu, hit, condProb)
					lb.less(fv, tv, hit, sub)
					addScaled(pboth, sub, hit, condProb)
				}
				live &= rhs
			} else {
				live &^= rhs
			}
			if live == 0 {
				break
			}
			continue
		}
		if tj {
			addLanes(pu, live, condProb*0.5)
			lb.push(mask, rhs)
			lb.less(fv, tv, live, sub)
			lb.rows = lb.rows[:len(lb.rows)-1]
			addScaled(pboth, sub, live, condProb*0.5)
		}
		lb.push(mask, rhs^laneWord(tj))
		condProb *= 0.5
	}
	lb.release()
	lb.rows = lb.rows[:top]
}

// conj is the ProbConj recursion over the lanes in live.
//
//sbw:allocfree lane kernel: multi-coin survival walk, recursive over the events
func (lb *LaneBasis) conj(events []CoinEvent, live uint64, out *[64]float64) {
	if len(events) == 0 {
		setLanes(out, live, 1)
		return
	}
	ev, rest := &events[0], events[1:]
	if !ev.Want {
		// Pr[rest ∧ C=0] = Pr[rest] − Pr[rest ∧ C=1], clamped per lane.
		lb.conj(rest, live, out)
		p1 := lb.frame()
		ev.Want = true
		lb.conj(events, live, p1)
		ev.Want = false
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			p := out[k] - p1[k]
			if p < 0 {
				p = 0
			}
			out[k] = p
		}
		lb.release()
		return
	}
	c := ev.Coin
	if c.t == 0 {
		setLanes(out, live, 0)
		return
	}
	if c.t >= uint64(1)<<c.b {
		lb.conj(rest, live, out)
		return
	}
	top := len(lb.rows)
	sub := lb.frame()
	setLanes(out, live, 0)
	condProb := 1.0
	for idx, fo := range c.forms {
		tj := c.t&(1<<(c.b-1-idx)) != 0
		mask, rhs := lb.reduce(fo)
		if mask.IsZero() {
			if tj {
				// "form = 0" is redundant where rhs = 0, inconsistent elsewhere.
				if hit := live &^ rhs; hit != 0 {
					lb.conj(rest, hit, sub)
					addScaled(out, sub, hit, condProb)
				}
				live &= rhs
			} else {
				live &^= rhs
			}
			if live == 0 {
				break
			}
			continue
		}
		if tj {
			lb.push(mask, rhs)
			lb.conj(rest, live, sub)
			lb.rows = lb.rows[:len(lb.rows)-1]
			addScaled(out, sub, live, condProb*0.5)
		}
		lb.push(mask, rhs^laneWord(tj))
		condProb *= 0.5
	}
	lb.release()
	lb.rows = lb.rows[:top]
}
