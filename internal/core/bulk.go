package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/gf2"
)

// phaseHub centralizes one component's seed-bit loop. In the
// distributed formulation every one of the D seed bits costs one tree
// aggregation — 2(size−1) messages rippling up and down the BFS tree
// over 2·Height+6 rounds — and at the scale tiers those aggregation
// waves, not the GF(2) math, dominate the wall clock. But the
// aggregation's outcome is a pure function of state the simulator
// already holds in one address space: every node's two conditional
// expectations, folded in a fixed tree order. So the hub evaluates the
// whole seed-bit segment centrally — the last node to register
// coordinates the D-bit loop for the component, replicating the
// distributed execution exactly — while the engine's round/traffic
// accounting is kept bit-identical by charging the aggregations' exact
// message and word counts (Ctx.ChargeTraffic) and sleeping through the
// segment's exact round span (SpinUntil, which the engine fast-forwards
// in one jump when a whole domain sleeps).
//
// The per-slot work of each bit — evalPhaseBit into acc and the
// foldSheets of the previous bit's choice — is fanned out across k
// contiguous slot bands (k = congest.DeliveryShards of the component,
// so small components stay on the coordinator alone). The cuts are
// weighted by 1+owned edges and recomputed every phase: an edge is
// owned by its smaller endpoint, so low ranks carry most of the work
// and an even split of the slots would leave the first band the
// bottleneck. Each non-coordinator band evaluates against its own
// pooled clone of the bit's SplitBasis (the split carries walk
// scratch). The tree-order fold, the argmin and FixBit stay on the
// coordinator.
//
// Bit-identity with the per-node loop (opts.noBulk) and the reference
// path (opts.refEval) rests on three invariants, each pinned by the
// differential suites:
//
//  1. Per-node evaluation is the same code: the hub calls the same
//     evalPhaseBit the per-node loop calls, against a basis with the
//     same fixed-bit history, so every (x0, x1) pair matches bitwise.
//     Which band evaluates a slot is unobservable: a slot's pair is a
//     pure function of its own state and the conditioning, and the
//     marginal memo it shares with other slots holds only pure values.
//  2. The float fold replicates the converge: ConvergeSumLockstepTo
//     folds, at each tree node, the node's own vector plus each child's
//     finished accumulator in child arrival order — ascending subtree
//     height, then ascending ID. The hub folds slot accumulators in
//     exactly that order (kids sorted by (height, ID), parents after
//     children), on one goroutine, so the root total — and hence every
//     argmin choice — is the bit-identical float.
//  3. Rounds, messages, words, and widths are charged as measured:
//     D aggregations of 2(size−1) messages × 4 words over
//     D·(2·Height+6) rounds, which is exactly what the distributed
//     waves cost (and zero messages for singleton components, whose
//     aggregations never send).
//
// Coordination is scheduling-independent: slots register, the arrival
// counter picks the last registrant as coordinator (any node — the
// choice is unobservable), everyone else parks in SpinUntil, and the
// engine's release-channel chain orders the coordinator's writes
// before every sleeper's reads. The band workers live only for the
// segment; each step's wake send orders the coordinator's writes
// before the band's reads, and the join orders the band's writes
// before the coordinator's fold. No commit happens inside the segment,
// so checkpoint cuts — taken only at iteration tops — see the same
// committed states and the same staged stats as the distributed run.
type phaseHub struct {
	size    int
	p       *Params
	arrived atomic.Int64

	// Coordinator-only state below; the registration counter orders
	// every slot write before the coordinator's reads, and the segment
	// wake-up orders the coordinator's writes before the slots' reads.
	slots []hubSlot
	order []int32 // fold order: slot indexes, ascending (SubtreeHeight, slot)
	acc   [][2]float64
	basis gf2.Basis
	built bool
	seed  gf2.Vec128 // the finished phase's seed, read by every slot on wake

	// The step every band runs next (runBand): fold bit stepJ−1 to
	// prevR, then evaluate bit stepJ under split/prefix. Written by the
	// coordinator before each wake.
	stepJ  int
	split  bool
	prefix uint64
	prevR  bool

	// Worker bands; the slices are nil when k == 1 and the coordinator
	// runs every step alone. Band b owns slots [cuts[b], cuts[b+1]);
	// band 0 is the coordinator's, bands 1..k−1 run on segment-scoped
	// goroutines (bodies, built once so starting them allocates
	// nothing) that wait on wake[b]: true runs one step, false exits.
	k      int
	cuts   []int
	bandSB []*gf2.SplitBasis // this bit's pooled split clone per worker band
	wake   []chan bool
	bodies []func()
	fault  []any // a band's recovered panic, re-raised by the coordinator
	joined sync.WaitGroup
	exited sync.WaitGroup
}

type hubSlot struct {
	ns   *nodeState
	subH int32
	kids []int32 // child slot indexes, ascending (SubtreeHeight, ID)
}

// newPhaseHub sizes a component's hub. The band count is the delivery
// shard count the engine would cut the component into under the same
// worker bound — one band below the per-shard floor — capped at one
// slot per band.
func newPhaseHub(size int, p *Params, workers int) *phaseHub {
	h := &phaseHub{
		size:  size,
		p:     p,
		slots: make([]hubSlot, size),
		acc:   make([][2]float64, size),
		k:     min(congest.DeliveryShards(size, workers), size),
	}
	if h.k > 1 {
		h.cuts = make([]int, h.k+1)
		h.cuts[h.k] = size
		h.bandSB = make([]*gf2.SplitBasis, h.k)
		h.wake = make([]chan bool, h.k)
		h.bodies = make([]func(), h.k)
		h.fault = make([]any, h.k)
		for b := 1; b < h.k; b++ {
			b := b
			h.wake[b] = make(chan bool, 1)
			h.bodies[b] = func() { h.bandWorker(b) }
		}
	}
	return h
}

// build assembles the fold schedule from the registered slots' BFS
// trees; runs once, on the first phase (the tree is fixed per run).
func (h *phaseHub) build() {
	for si := range h.slots {
		sl := &h.slots[si]
		t := sl.ns.tree
		sl.subH = int32(t.SubtreeHeight)
		if len(t.Children) > 0 {
			sl.kids = make([]int32, len(t.Children))
			for k, c := range t.Children {
				sl.kids[k] = int32(sl.ns.rankOf[c])
			}
			// Child accumulators arrive in round order — ascending subtree
			// height — with ascending IDs within a round. Children is
			// ID-ascending, so a stable sort by height preserves the
			// within-round order.
			kids := sl.kids
			sort.SliceStable(kids, func(a, b int) bool {
				return h.slots[kids[a]].subH < h.slots[kids[b]].subH
			})
		}
	}
	h.order = make([]int32, h.size)
	for i := range h.order {
		h.order[i] = int32(i)
	}
	ord := h.order
	sort.SliceStable(ord, func(a, b int) bool {
		return h.slots[ord[a]].subH < h.slots[ord[b]].subH
	})
	if last := ord[h.size-1]; last != 0 {
		panic(fmt.Sprintf("core: phase hub fold order ends at slot %d, not the root", last))
	}
	h.built = true
}

// runSeedBits is the central replica of the distributed seed-bit loop:
// one Split per bit serves every slot, the tree-ordered fold replaces
// the aggregation wave, and every slot's sheets and the shared basis
// advance in lockstep with the chosen bits. Step j folds bit j−1 into
// the sheets and evaluates bit j in one pass over each band; step D
// only folds the last bit.
func (h *phaseHub) runSeedBits() gf2.Vec128 {
	basis := &h.basis
	basis.Reset()
	if h.k > 1 {
		h.cutBands()
		h.exited.Add(h.k - 1)
		for b := 1; b < h.k; b++ {
			go h.bodies[b]()
		}
		defer h.stopBands()
	}
	var seed gf2.Vec128
	h.prefix = 0
	for j := 0; ; j++ {
		h.stepJ = j
		var sb *gf2.SplitBasis
		h.split = false
		if j < h.p.D {
			sb, h.split = basis.Split(j)
		}
		h.step(sb)
		if h.split {
			sb.Release()
		}
		if j == h.p.D {
			return seed
		}
		for _, si := range h.order {
			a := &h.acc[si]
			for _, ci := range h.slots[si].kids {
				c := &h.acc[ci]
				a[0] += c[0]
				a[1] += c[1]
			}
		}
		totals := h.acc[0] // the root is rank 0: the component's smallest ID
		rj := totals[1] < totals[0]
		if !basis.FixBit(j, rj) {
			panic("core: chosen seed bit inconsistent")
		}
		h.prevR = rj
		seed = seed.WithBit(j, rj)
		if rj && j < 64 {
			h.prefix |= uint64(1) << j
		}
	}
}

// cutBands cuts the slots into k contiguous bands of about equal work,
// a slot weighing 1 plus its owned conflict edges: band b ends at the
// first slot whose running weight reaches b/k of the total. Runs once
// per phase, since the alive and owned sets change between phases.
func (h *phaseHub) cutBands() {
	total := 0
	for si := range h.slots {
		total += 1 + len(h.slots[si].ns.ownedIdx)
	}
	run, b := 0, 1
	for si := range h.slots {
		run += 1 + len(h.slots[si].ns.ownedIdx)
		for b < h.k && run*h.k >= b*total {
			h.cuts[b] = si + 1
			b++
		}
	}
}

// step runs the current step on every band and returns once all are
// done: the worker bands each get a pooled clone of sb, the coordinator
// runs band 0 on sb itself.
//
//sbw:allocfree phase-hub fork/join: one call per seed bit per phase
func (h *phaseHub) step(sb *gf2.SplitBasis) {
	if h.k == 1 {
		h.runBand(0, h.size, sb)
		return
	}
	h.joined.Add(h.k - 1)
	for b := 1; b < h.k; b++ {
		h.bandSB[b] = nil
		if h.split {
			h.bandSB[b] = sb.Clone()
		}
		h.wake[b] <- true
	}
	h.runBand(0, h.cuts[1], sb)
	h.joined.Wait()
	for b := 1; b < h.k; b++ {
		if h.fault[b] != nil {
			panic(h.fault[b])
		}
		if h.bandSB[b] != nil {
			h.bandSB[b].Release()
		}
	}
}

// runBand runs the current step over slots [lo, hi): fold the previous
// bit's choice into each slot's sheets, then evaluate this bit into
// acc. Bands touch disjoint slots, so they share nothing but read-only
// inputs and the concurrency-safe marginal memo.
//
//sbw:allocfree phase-hub band step: one call per band per seed bit
func (h *phaseHub) runBand(lo, hi int, sb *gf2.SplitBasis) {
	j := h.stepJ
	for si := lo; si < hi; si++ {
		ns := h.slots[si].ns
		if j > 0 {
			ns.foldSheets(j-1, h.prevR)
		}
		if j < h.p.D {
			var x0, x1 float64
			if ns.alive {
				x0, x1 = ns.evalPhaseBit(j, &h.basis, sb, h.split, h.prefix)
			}
			h.acc[si] = [2]float64{x0, x1}
		}
	}
}

// bandWorker is worker band b's segment-scoped goroutine. A panic in a
// band is handed to the coordinator, which re-raises it on the node
// goroutine, where the engine reports it as the run's error.
func (h *phaseHub) bandWorker(b int) {
	defer h.exited.Done()
	defer func() {
		if p := recover(); p != nil {
			h.fault[b] = p
			h.joined.Done()
		}
	}()
	for <-h.wake[b] {
		h.runBand(h.cuts[b], h.cuts[b+1], h.bandSB[b])
		h.joined.Done()
	}
}

// stopBands ends the segment's worker goroutines and waits for them, so
// none outlives the segment.
func (h *phaseHub) stopBands() {
	for b := 1; b < h.k; b++ {
		h.wake[b] <- false
	}
	h.exited.Wait()
}

// runPhaseBulk is the per-node entry to the hub for one phase: register
// this node's slot, let the last registrant run the segment centrally,
// and sleep through the segment's exact round span. Returns the
// component's chosen seed.
func (ns *nodeState) runPhaseBulk() gf2.Vec128 {
	h := ns.hub
	h.slots[ns.rank].ns = ns
	start := ns.ctx.Round()
	if h.arrived.Add(1) == int64(h.size) {
		if !h.built {
			h.build()
		}
		h.seed = h.runSeedBits()
		// Charge exactly what the D aggregation waves would have carried:
		// each wave sends one 4-word chunk up and one down per tree edge.
		// Singleton components send nothing, there as here.
		if h.size > 1 {
			edges := int64(h.size - 1)
			d := int64(h.p.D)
			ns.ctx.ChargeTraffic(d*2*edges, d*8*edges, 4)
		}
		h.arrived.Store(0)
	}
	// The segment's exact span: D aggregations of 2·Height+6 rounds each
	// (every node computes the same bound from its own tree copy). The
	// whole domain sleeps, so the engine advances it in one jump.
	congest.SpinUntil(ns.ctx, start+ns.p.D*(2*ns.tree.Height+6))
	ns.op += uint64(ns.p.D)
	return h.seed
}
