// Package core implements the paper's primary contribution: deterministic
// (degree+1)-list coloring in the CONGEST model in time proportional to
// the diameter (Lemma 2.1 and Theorem 1.1), by derandomizing — with the
// method of conditional expectations over a BFS tree — the zero-round
// randomized bit-by-bit color-prefix extension of Section 2.1.
//
// The package also exposes the zero-round randomized processes themselves
// (Algorithm 1 and its ε-biased variant of Lemma 2.3) for baseline
// comparison and for Monte-Carlo validation of the expectation bounds.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
)

// Params collects the global quantities of one list-coloring run. Every
// node derives the same Params locally from (n, Δ, C) — exactly the
// "global knowledge" the paper assumes.
type Params struct {
	N     int    // number of nodes
	Delta int    // maximum degree of the communication graph
	C     uint32 // color-space size; colors are ⌈logC⌉-bit strings
	LogC  int    // ⌈log₂ C⌉: number of prefix-extension phases

	// Input-coloring (symmetry-breaking) parameters: Linial from IDs.
	LinialSched []linial.Step
	K           uint64 // color space of ψ after the Linial schedule
	A           int    // ⌈log₂ K⌉

	// Derandomization parameters (Lemma 2.6).
	B int // coin accuracy: ε = 2^−B
	M int // hash field degree max(A, B)
	D int // seed length 2M (pairwise independence, k = 2)

	// MIS-step parameters: Linial schedule on the ≤3-degree conflict
	// graph, starting from the K-coloring ψ.
	MISSched []linial.Step
	MISK     uint64 // color classes iterated by the MIS step

	Fam *gf2.Family
}

// Options configures a run.
type Options struct {
	// MaxIterations limits the number of partial-coloring iterations
	// (0 = run to completion). MaxIterations = 1 is Lemma 2.1.
	MaxIterations int
	// HighAccuracy uses the sharper coin accuracy of the paper's
	// "How to Avoid MIS" variant (Section 4): ε = 1/(10·Δ·(Δ+1)·⌈logC⌉).
	// The CONGEST algorithm still runs its MIS step, so this serves as an
	// accuracy ablation.
	HighAccuracy bool
	// TrackPotentials records Σ_v Φ(v) before and after every prefix
	// phase (measured outside the protocol; costs no rounds).
	TrackPotentials bool
	// MaxWords overrides the CONGEST bandwidth cap (0 = default).
	MaxWords int
	// MaxRounds overrides the CONGEST round cap (0 = default).
	MaxRounds int
	// Workers bounds the simulator's delivery/compute parallelism: 0
	// sizes the engine's worker pool from GOMAXPROCS, n > 0 caps it at n
	// shards. Colors, Stats, and telemetry are bit-identical for every
	// setting; the engine rejects negative or absurd values.
	Workers int

	// refEval routes every derandomization phase through the
	// pre-optimization evaluation path (runPhaseRef). Test-only: the
	// differential tests pin that the optimized hot path reproduces the
	// reference bit for bit.
	refEval bool

	// noBulk disables the per-component bulk seed-bit aggregation
	// (phaseHub) so every seed bit runs its distributed tree aggregation
	// for real. Test-only: the differential tests pin that the bulk path
	// reproduces the distributed execution bit for bit.
	noBulk bool

	// crashIter/crashNode inject a fault: when crashIter > 0, node
	// crashNode's program panics at the top of iteration crashIter−1,
	// before committing it. Test-only: the checkpoint tests use it to
	// kill a worker mid-run and pin that the cuts recorded before the
	// crash resume to the uninterrupted run's exact results.
	crashIter int
	crashNode int
}

// ComputeParams validates the instance and derives all global parameters.
func ComputeParams(inst *graph.Instance, opts Options) (*Params, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return computeParamsFor(inst.G.N(), inst.G.MaxDegree(), inst.C, opts)
}

// computeParamsFor derives the parameter set from the quantities every
// node of a (sub)network knows: its node count, maximum degree, and the
// color-space size. ListColorCONGEST derives one set per connected
// component, so a component behaves exactly as a standalone run of its
// own instance would (the per-cluster reading of Corollary 1.2).
func computeParamsFor(n, delta int, c uint32, opts Options) (*Params, error) {
	logC := bits.Len32(c - 1) // ⌈log₂ C⌉ for C ≥ 1
	p := &Params{N: n, Delta: delta, C: c, LogC: logC}

	// Input coloring: Linial from the trivial ID coloring.
	k0 := uint64(n)
	if k0 < 2 {
		k0 = 2
	}
	p.LinialSched = linial.Schedule(k0, delta)
	p.K = k0
	for _, st := range p.LinialSched {
		p.K = st.NewK
	}
	p.A = bits.Len64(p.K - 1)
	if p.A < 1 {
		p.A = 1
	}

	// Coin accuracy: ε = 2^−B ≤ 1/(10·Δ·⌈logC⌉) so that the per-phase
	// potential growth is at most n/⌈logC⌉ (Lemma 2.6).
	effLogC := logC
	if effLogC < 1 {
		effLogC = 1
	}
	accDenom := uint64(10) * uint64(delta+1) * uint64(effLogC)
	if opts.HighAccuracy {
		accDenom *= uint64(delta + 1)
	}
	p.B = bits.Len64(accDenom) // ⌈log₂ accDenom⌉ ≤ Len
	if p.B < 1 {
		p.B = 1
	}
	p.M = p.A
	if p.B > p.M {
		p.M = p.B
	}
	if p.M > 63 {
		return nil, fmt.Errorf("core: hash field degree %d exceeds 63 (instance too large)", p.M)
	}
	// Coin thresholds are ⌈k1·2^B/|L|⌉ with k1 ≤ C: they must fit uint64.
	if p.B+bits.Len32(c) > 62 {
		return nil, fmt.Errorf("core: B=%d with C=%d would overflow coin thresholds", p.B, c)
	}
	// The marginal-memo key packs (j, M, B) into consecutive 8-bit
	// fields; a parameter outside its field would silently alias another
	// configuration's entries. Unreachable with the bounds above, but
	// guarded explicitly so a future parameter change cannot corrupt the
	// memo by overflow.
	if !memoKeyFieldsOK(p.M, p.B) {
		return nil, fmt.Errorf("core: M=%d or B=%d exceeds the memo key's 8-bit fields", p.M, p.B)
	}
	p.D = 2 * p.M
	fam, err := gf2.NewFamily(p.M, 2)
	if err != nil {
		return nil, err
	}
	p.Fam = fam

	// MIS step: conflict graph has max degree 3 on V<4.
	p.MISSched = linial.Schedule(p.K, 3)
	p.MISK = p.K
	for _, st := range p.MISSched {
		p.MISK = st.NewK
	}
	return p, nil
}

// memoKeyFieldsOK reports whether M and B each fit the 8-bit field the
// marginal-memo key word assigns them (seed bit j shares the word and is
// bounded by D ≤ 64 on the block path, the memo's only user).
func memoKeyFieldsOK(m, b int) bool {
	return m >= 0 && m <= 255 && b >= 0 && b <= 255
}

// EdgeExpectation returns E[X_e | basis] for a conflict edge, where
// X_e = 1{e survives}·(1/|L_ℓ(u)|+1/|L_ℓ(v)|) exactly as in Lemma 2.2:
// the edge survives iff both endpoints extend their prefix with the same
// bit, and the surviving list sizes are k1 (bit 1) or k0 (bit 0).
// It is the reference path's edge term (runPhaseRef); the phase loop
// combines the same probabilities through edgeCombine.
//
//sbw:allocfree Theorem 1.1 reference edge term: runPhaseRef, per edge per branch
func EdgeExpectation(bs *gf2.Basis, cu, cv gf2.Coin, k1u, k0u, k1v, k0v int) float64 {
	p1u, p11 := gf2.ProbOneAndBothOne(bs, cu, cv)
	p1v := cv.ProbOne(bs)
	return edgeCombine(p1u, p1v, p11, k1u, k0u, k1v, k0v)
}

// margMemo is a global memo of neighbor-marginal probabilities: the
// value Pr[C_w = 1 | seed bits 0..j−1 = prefix, bit j = β] is a pure
// function of (M, B, ψ_w, threshold, j, prefix) — the field and family
// are deterministic per M — and the conditioning prefix is *global*
// (every node fixes the same seed bits), so all ~Δ owners evaluating
// edges into w at seed bit j need the same pair of numbers. The table
// is a fixed-size direct-mapped cache of seqlock slots: entries are
// written and read with per-word atomics and validated by the sequence
// number, collisions simply overwrite, and a lost or stale entry only
// costs a recomputation of the same bit-identical value.
//
// The table is striped: each engine-shard-sized band of owner nodes
// hashes into its own slot array, and a slot is exactly one cache line,
// so concurrent phase-loop workers never write-share memo lines. Owners
// in different stripes recompute instead of sharing a neighbor's entry —
// the values are pure, so striping changes cache behavior only, never a
// probability bit.
const (
	margStripes     = 8
	margStripeSlots = 1 << 13
)

// margSlot is one seqlock memo entry: seq + 4 key words + 2 value words
// = 56 bytes, padded to a full 64-byte cache line so neighboring slots
// (and neighboring stripes) never false-share.
type margSlot struct {
	seq atomic.Uint64
	k   [4]atomic.Uint64
	v   [2]atomic.Uint64
	_   [1]uint64
}

var margTab [margStripes][margStripeSlots]margSlot

// margStripeFor maps owner node v of an n-node run to its memo stripe:
// contiguous node bands, aligned with how the engine cuts delivery
// shards, so one phase-loop worker stays inside one stripe.
func margStripeFor(v, n int) int {
	if n <= 0 || v < 0 {
		return 0
	}
	s := v * margStripes / n
	if s >= margStripes {
		s = margStripes - 1
	}
	return s
}

func margIndex(stripe int, k0, k1, k2, k3 uint64) *margSlot {
	h := uint64(1469598103934665603)
	for _, w := range [4]uint64{k0, k1, k2, k3} {
		h ^= w
		h *= 1099511628211
	}
	return &margTab[stripe][(h^h>>29)&(margStripeSlots-1)]
}

//sbw:allocfree phase-step kernel: seqlock memo read on every owned edge
func margLoad(stripe int, k0, k1, k2, k3 uint64) (p0, p1 float64, ok bool) {
	s := margIndex(stripe, k0, k1, k2, k3)
	s1 := s.seq.Load()
	if s1&1 != 0 {
		return 0, 0, false
	}
	a0, a1, a2, a3 := s.k[0].Load(), s.k[1].Load(), s.k[2].Load(), s.k[3].Load()
	v0, v1 := s.v[0].Load(), s.v[1].Load()
	if s.seq.Load() != s1 || a0 != k0 || a1 != k1 || a2 != k2 || a3 != k3 {
		return 0, 0, false
	}
	return math.Float64frombits(v0), math.Float64frombits(v1), true
}

//sbw:allocfree phase-step kernel: seqlock memo publish on memo miss
func margStore(stripe int, k0, k1, k2, k3 uint64, p0, p1 float64) {
	s := margIndex(stripe, k0, k1, k2, k3)
	s1 := s.seq.Load()
	if s1&1 != 0 || !s.seq.CompareAndSwap(s1, s1+1) {
		return // another writer owns the slot; drop this entry
	}
	s.k[0].Store(k0)
	s.k[1].Store(k1)
	s.k[2].Store(k2)
	s.k[3].Store(k3)
	s.v[0].Store(math.Float64bits(p0))
	s.v[1].Store(math.Float64bits(p1))
	s.seq.Store(s1 + 2)
}

// edgeCombine assembles the Lemma 2.2 edge term from the three joint
// coin probabilities (shared by the reference, block and lane
// evaluations; the expression and operation order are part of the
// bit-identity contract).
//
//sbw:allocfree phase-step kernel: Lemma 2.2 edge term assembly
func edgeCombine(p1u, p1v, p11 float64, k1u, k0u, k1v, k0v int) float64 {
	p00 := 1 - p1u - p1v + p11
	var e float64
	if p11 > 0 {
		// p11 > 0 implies k1u, k1v ≥ 1 (thresholds are 0 otherwise).
		e += p11 * (1/float64(k1u) + 1/float64(k1v))
	}
	if p00 > 0 {
		// p00 > 0 implies k0u, k0v ≥ 1 (p = 1 coins never show 0).
		e += p00 * (1/float64(k0u) + 1/float64(k0v))
	}
	return e
}

// countBitOnes returns how many candidate colors have bit bitPos set.
func countBitOnes(cands []uint32, bitPos int) int {
	k1 := 0
	for _, c := range cands {
		if c&(1<<bitPos) != 0 {
			k1++
		}
	}
	return k1
}

// filterByBit keeps the candidates whose bitPos-th bit equals val,
// filtering in place.
func filterByBit(cands []uint32, bitPos int, val bool) []uint32 {
	out := cands[:0]
	for _, c := range cands {
		if (c&(1<<bitPos) != 0) == val {
			out = append(out, c)
		}
	}
	return out
}

// removeColor deletes color c from the sorted list if present.
func removeColor(list []uint32, c uint32) []uint32 {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == c {
		return append(list[:lo], list[lo+1:]...)
	}
	return list
}
