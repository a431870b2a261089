package clique

import (
	"fmt"
	"math"
	"math/bits"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// Options configures the Theorem 1.3 algorithm.
type Options struct {
	// MaxWords is the per-message bandwidth cap (0 = default 4).
	MaxWords int
	// BatchCap caps how many prefix bits are fixed per derandomization
	// batch once few nodes remain (0 = default 2). The paper's
	// acceleration fixes i bits when ≤ n/2^i nodes are uncolored.
	BatchCap int
	// LambdaCap caps the seed-segment width λ ≤ ⌊log₂ n⌋ (0 = default 16).
	LambdaCap int
	// ForceBatch, if > 0, fixes that many prefix bits per batch from the
	// first iteration regardless of the uncolored count — an ablation
	// knob for exercising the multi-bit machinery (the adaptive rule only
	// engages when the uncolored count lands in (n/Δ, n/4]).
	ForceBatch int
}

// Result reports the coloring and measured cost.
type Result struct {
	Colors []uint32
	Stats  Stats
	// Iterations is the number of partial-coloring iterations before the
	// residual subgraph was shipped to the leader.
	Iterations int
	// MaxBatch is the largest number of prefix bits fixed at once.
	MaxBatch int
	// LocalFinishUncolored is the number of uncolored nodes at the moment
	// the residual instance was solved locally at the leader (0 if the
	// iterations colored everything).
	LocalFinishUncolored int
}

// clqNode keeps one node's protocol state. Neighbor sets are sorted
// int32 slices, not maps: every iteration over them is in ascending
// order, so the floating-point accumulations of the derandomization are
// evaluated in one fixed order and the whole run is bit-deterministic.
type clqNode struct {
	id       int
	alive    bool
	colored  bool
	color    uint32
	list     []uint32
	cands    []uint32
	nbrs     []int32
	aliveNbr []int32 // still-uncolored G-neighbors, sorted
	conflict []int32 // conflict neighbors of the current iteration, sorted
	nbrK     map[int][]uint64
	coins    []batchCoin // this batch's sequential coins (coinTable)
	own      float64     // this segment's value for the assignment the node is responsible for
	phi      int
}

// ListColorClique solves the (degree+1)-list-coloring instance in the
// congested clique (Theorem 1.3): node IDs serve as the input coloring
// (seed length O(log n)); Ω(log n) seed bits are fixed per O(1) rounds by
// splitting the seed into segments whose 2^λ candidate assignments are
// evaluated by 2^λ responsible nodes in parallel; once ≤ n/2^i nodes
// remain uncolored, i prefix bits are fixed per batch; and once the
// uncolored subgraph has ≤ n edges it is routed to a leader (Lenzen) and
// solved locally.
func ListColorClique(inst *graph.Instance, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.G.N()
	if n == 0 {
		return &Result{}, nil
	}
	if opts.BatchCap == 0 {
		opts.BatchCap = 2
	}
	if opts.LambdaCap == 0 {
		opts.LambdaCap = 16
	}
	sim := NewSim(n, opts.MaxWords)
	defer sim.Close()
	delta := inst.G.MaxDegree()
	logC := bits.Len32(inst.C - 1)
	effLogC := max(logC, 1)
	// MIS-free accuracy (Section 4, "How to Avoid MIS"):
	// ε ≤ 1/(10·(Δ+1)²·⌈logC⌉).
	b := bits.Len64(10 * uint64(delta+1) * uint64(delta+1) * uint64(effLogC))
	a := max(bits.Len64(uint64(n-1)), 1)

	nodes := make([]*clqNode, n)
	for v := 0; v < n; v++ {
		nd := &clqNode{
			id:       v,
			alive:    true,
			list:     append([]uint32(nil), inst.Lists[v]...),
			nbrs:     inst.G.Neighbors(v),
			aliveNbr: append([]int32(nil), inst.G.Neighbors(v)...),
		}
		nodes[v] = nd
	}

	st := &cliqueRun{
		sim: sim, nodes: nodes, n: n, logC: logC, b: b, a: a,
		delta: delta, opts: opts, c: inst.C,
	}
	res := &Result{}
	for {
		u, deltaCur, err := st.statusRounds()
		if err != nil {
			return nil, err
		}
		if u == 0 {
			break
		}
		if u*max(deltaCur, 1) <= n {
			res.LocalFinishUncolored = u
			if err := st.localFinish(inst); err != nil {
				return nil, err
			}
			break
		}
		// Acceleration: with u ≤ n/2^i uncolored nodes, fix i bits at once.
		w := 1
		for w < opts.BatchCap && u*(1<<(w+1)) <= n && (w+1)*b <= 63 {
			w++
		}
		if opts.ForceBatch > 0 {
			w = opts.ForceBatch
			for w > 1 && w*b > 63 {
				w--
			}
		}
		if w > res.MaxBatch {
			res.MaxBatch = w
		}
		if err := st.iteration(w, deltaCur); err != nil {
			return nil, err
		}
		res.Iterations++
		if res.Iterations > 16*bits.Len(uint(n))+64 {
			return nil, fmt.Errorf("clique: iteration budget exceeded (progress guarantee violated)")
		}
	}
	colors := make([]uint32, n)
	for v, nd := range nodes {
		if !nd.colored {
			return nil, fmt.Errorf("clique: node %d left uncolored", v)
		}
		colors[v] = nd.color
	}
	if err := inst.VerifyColoring(colors); err != nil {
		return nil, fmt.Errorf("clique: coloring invalid: %w", err)
	}
	res.Colors = colors
	res.Stats = sim.Stats
	return res, nil
}

type cliqueRun struct {
	sim   *Sim
	nodes []*clqNode
	n     int
	logC  int
	b, a  int
	delta int
	c     uint32
	opts  Options
}

// statusRounds aggregates (uncolored count, max uncolored degree) at the
// leader and broadcasts them: 2 rounds.
func (st *cliqueRun) statusRounds() (int, int, error) {
	out := NewOut(st.n)
	for v, nd := range st.nodes {
		if v == 0 {
			continue
		}
		deg := 0
		if nd.alive {
			deg = len(nd.aliveNbr)
		}
		out[v] = append(out[v], Directed{To: 0, Payload: Message{boolW(nd.alive), uint64(deg)}})
	}
	in, err := st.sim.Exchange(out)
	if err != nil {
		return 0, 0, err
	}
	u, dmax := 0, 0
	if st.nodes[0].alive {
		u, dmax = 1, len(st.nodes[0].aliveNbr)
	}
	for _, m := range in[0] {
		if m.Payload[0] == 1 {
			u++
			dmax = max(dmax, int(m.Payload[1]))
		}
	}
	out = NewOut(st.n)
	for v := 1; v < st.n; v++ {
		out[0] = append(out[0], Directed{To: int32(v), Payload: Message{uint64(u), uint64(dmax)}})
	}
	if _, err := st.sim.Exchange(out); err != nil {
		return 0, 0, err
	}
	return u, dmax, nil
}

// iteration runs one partial-coloring pass fixing w bits per batch, then
// the MIS-free keep step, then the announcement round.
func (st *cliqueRun) iteration(w, deltaCur int) error {
	// Trim candidate lists to exactly (uncolored degree + 1) colors so
	// that ΣΦ₀ ≤ U − U/(Δ+1) (Equation (9) needs |L| ≤ Δ+1).
	for _, nd := range st.nodes {
		if !nd.alive {
			nd.cands = nil
			nd.conflict = nd.conflict[:0]
			continue
		}
		keep := min(len(nd.aliveNbr)+1, len(nd.list))
		nd.cands = append(nd.cands[:0], nd.list[:keep]...)
		nd.conflict = append(nd.conflict[:0], nd.aliveNbr...)
	}
	for fixed := 0; fixed < st.logC; {
		ww := min(w, st.logC-fixed)
		if err := st.runBatch(ww, fixed); err != nil {
			return err
		}
		fixed += ww
	}

	// MIS-free keep step: nodes with ≤ 1 conflict exchange membership;
	// the larger ID (or the unique V₁ member) keeps its candidate.
	out := NewOut(st.n)
	for v, nd := range st.nodes {
		nd.phi = len(nd.conflict)
		if nd.alive && nd.phi <= 1 {
			for _, u := range nd.conflict {
				out[v] = append(out[v], Directed{To: u, Payload: Message{1}})
			}
		}
	}
	in, err := st.sim.Exchange(out)
	if err != nil {
		return err
	}
	for v, nd := range st.nodes {
		if !nd.alive {
			continue
		}
		switch {
		case nd.phi == 0:
			nd.keepColor()
		case nd.phi == 1:
			partner := int(nd.conflict[0])
			_, partnerInV1 := Lookup(in[v], partner)
			if !partnerInV1 || v > partner {
				nd.keepColor()
			}
		}
	}

	// Announcement: colored nodes tell all still-uncolored G-neighbors.
	out = NewOut(st.n)
	for v, nd := range st.nodes {
		if nd.colored && nd.alive {
			// keepColor marks colored; alive flips below after announcing.
			for _, u := range nd.aliveNbr {
				out[v] = append(out[v], Directed{To: u, Payload: Message{uint64(nd.color)}})
			}
		}
	}
	in, err = st.sim.Exchange(out)
	if err != nil {
		return err
	}
	for v, nd := range st.nodes {
		if nd.colored {
			nd.alive = false
		}
		for _, m := range in[v] {
			nd.aliveNbr = graph.SortedRemove(nd.aliveNbr, m.From)
			if !nd.colored {
				nd.list = removeColor(nd.list, uint32(m.Payload[0]))
			}
		}
	}
	return nil
}

func (nd *clqNode) keepColor() {
	nd.color = nd.cands[0]
	nd.colored = true
}

// runBatch fixes the w prefix bits at positions
// [logC−fixed−w, logC−fixed) for every alive node, derandomizing the
// shared seed segment by segment with 2^λ responsible nodes per segment.
//
// Everything that does not depend on the candidate assignment is built
// outside the assignment loop: each node's coin table once per batch
// (exchangeCounts), one lane basis per segment, and one events buffer
// for every ProbConj query of the batch. A node scores up to 64
// assignments of a segment in one lane walk per owned edge and path.
func (st *cliqueRun) runBatch(w, fixed int) error {
	m := max(st.a, w*st.b)
	if m > 63 {
		return fmt.Errorf("clique: hash degree %d exceeds 63", m)
	}
	fam, err := gf2.NewFamily(m, 2)
	if err != nil {
		return err
	}
	d := fam.SeedBits()
	hi := st.logC - fixed - 1 // most significant bit of this batch
	if err := st.exchangeCounts(fam, hi, w); err != nil {
		return err
	}

	// Derandomize the seed segment by segment.
	lambda := max(1, min(min(bits.Len(uint(st.n))-1, d), st.opts.LambdaCap))
	basis := gf2.NewBasis()
	var lb gf2.LaneBasis
	var vals, edge, pr [64]float64
	events := make([]gf2.CoinEvent, 0, 2*w)
	var seed gf2.Vec128
	for segStart := 0; segStart < d; segStart += lambda {
		segW := min(lambda, d-segStart)
		nAssign := 1 << segW
		if err := lb.Reset(basis, segStart, segW); err != nil {
			return fmt.Errorf("clique: %w", err)
		}

		// Every node evaluates its owned conflict edges for every
		// candidate assignment and sends each value to its responsible
		// node (1 round); the value for its own assignment it keeps.
		out := NewOut(st.n)
		for v, nd := range st.nodes {
			for c := 0; c < lb.Chunks(); c++ {
				lb.SetChunk(c)
				vals = [64]float64{}
				if nd.alive {
					for _, u32 := range nd.conflict {
						u := int(u32)
						if u < v {
							continue // owner is the smaller endpoint
						}
						events = edgeExpCoins(&lb, &edge, &pr, nd.nbrK[nd.id], nd.nbrK[u],
							nd.coins, st.nodes[u].coins, w, events)
						for k := 0; k < lb.Lanes(); k++ {
							vals[k] += edge[k]
						}
					}
				}
				for k := 0; k < lb.Lanes(); k++ {
					r := c<<6 | k
					if r == v {
						nd.own = vals[k]
						continue
					}
					out[v] = append(out[v], Directed{To: int32(r), Payload: Message{uint64(r), math.Float64bits(vals[k])}})
				}
			}
		}
		in, err := st.sim.Exchange(out)
		if err != nil {
			return err
		}
		// Responsible nodes add up their assignment's values and forward
		// the sum to the leader (1 round); the leader is responsible for
		// assignment 0.
		out = NewOut(st.n)
		best, bestVal := 0, 0.0
		for r := 0; r < nAssign; r++ {
			sum := st.nodes[r].own
			for _, rm := range in[r] {
				sum += math.Float64frombits(rm.Payload[1])
			}
			if r == 0 {
				bestVal = sum
				continue
			}
			out[r] = append(out[r], Directed{To: 0, Payload: Message{uint64(r), math.Float64bits(sum)}})
		}
		in, err = st.sim.Exchange(out)
		if err != nil {
			return err
		}
		for r := 1; r < nAssign; r++ {
			msg, ok := Lookup(in[0], r)
			if !ok {
				return fmt.Errorf("clique: responsible node %d did not report", r)
			}
			if v := math.Float64frombits(msg[1]); v < bestVal {
				best, bestVal = int(msg[0]), v
			}
		}
		// Broadcast the chosen assignment (1 round).
		out = NewOut(st.n)
		for v := 1; v < st.n; v++ {
			out[0] = append(out[0], Directed{To: int32(v), Payload: Message{uint64(best)}})
		}
		if _, err := st.sim.Exchange(out); err != nil {
			return err
		}
		for t := 0; t < segW; t++ {
			val := best>>uint(t)&1 == 1
			basis.FixBit(segStart+t, val)
			seed = seed.WithBit(segStart+t, val)
		}
	}

	// Every alive node runs its w sequential coins under the fixed seed,
	// extends its prefix, and exchanges the chosen path (1 round).
	chosen := make([]uint64, st.n)
	out := NewOut(st.n)
	for v, nd := range st.nodes {
		if !nd.alive {
			continue
		}
		path := uint64(0)
		for t := 0; t < w; t++ {
			bc := nd.coins[1<<t-1+int(path)]
			if bc.den == 0 {
				return fmt.Errorf("clique: node %d sequential coin: prefix %b has no candidates", v, path)
			}
			path <<= 1
			if bc.coin.Value(seed) {
				path |= 1
			}
		}
		chosen[v] = path
		nd.cands = filterByPath(nd.cands, hi, w, path)
		if len(nd.cands) == 0 {
			return fmt.Errorf("clique: node %d candidate set emptied", v)
		}
		for _, u := range nd.conflict {
			out[v] = append(out[v], Directed{To: u, Payload: Message{path}})
		}
	}
	in, err := st.sim.Exchange(out)
	if err != nil {
		return err
	}
	for v, nd := range st.nodes {
		if !nd.alive {
			continue
		}
		kept := nd.conflict[:0]
		for _, u := range nd.conflict {
			if msg, ok := Lookup(in[v], int(u)); ok && msg[0] == chosen[v] {
				kept = append(kept, u)
			}
		}
		nd.conflict = kept
	}
	return nil
}

// exchangeCounts computes every alive node's leaf counts K(p) for the
// w-bit batch whose most significant bit is hi, builds the node's coin
// table from them, and sends the counts to its conflict neighbors,
// which store them in nbrK.
func (st *cliqueRun) exchangeCounts(fam *gf2.Family, hi, w int) error {
	paths := 1 << w
	for _, nd := range st.nodes {
		nd.nbrK = map[int][]uint64{}
		nd.coins = nil
		if !nd.alive {
			continue
		}
		counts := leafCounts(nd.cands, hi, w)
		nd.nbrK[nd.id] = counts
		var err error
		if nd.coins, err = coinTable(fam, nd.id, st.b, w, counts); err != nil {
			return err
		}
	}
	chunk := st.sim.maxWords - 1
	for off := 0; off < paths; off += chunk {
		end := min(off+chunk, paths)
		out := NewOut(st.n)
		for v, nd := range st.nodes {
			if !nd.alive || len(nd.conflict) == 0 {
				continue
			}
			msg := make(Message, 0, 1+end-off)
			msg = append(msg, uint64(off))
			msg = append(msg, nd.nbrK[nd.id][off:end]...)
			for _, u := range nd.conflict {
				out[v] = append(out[v], Directed{To: u, Payload: msg})
			}
		}
		in, err := st.sim.Exchange(out)
		if err != nil {
			return err
		}
		for v, nd := range st.nodes {
			for _, rm := range in[v] {
				if !graph.SortedHas(nd.conflict, rm.From) {
					continue
				}
				if nd.nbrK[rm.From] == nil {
					nd.nbrK[rm.From] = make([]uint64, paths)
				}
				copy(nd.nbrK[rm.From][rm.Payload[0]:], rm.Payload[1:])
			}
		}
	}
	return nil
}

// batchCoin is one sequential coin of a node's w-bit batch: the coin
// that extends a t-bit prefix q, showing 1 with probability
// S(q1)/S(q). den = S(q); den == 0 marks a prefix no candidate extends,
// which has no coin.
type batchCoin struct {
	coin gf2.Coin
	den  uint64
}

// coinTable returns node id's 2^w − 1 sequential coins for the batch
// with leaf counts counts. Entry 2^t − 1 + q is the coin that extends
// the t-bit prefix q; its forms are the hash output window
// [m−(t+1)·b, m−t·b) of the node's input color. The coins depend only on
// the node and the batch, so the 2^λ-assignment loop reads them from
// this table.
func coinTable(fam *gf2.Family, id, b, w int, counts []uint64) ([]batchCoin, error) {
	m := fam.Field().M()
	tab := make([]batchCoin, 1<<w-1)
	for t := 0; t < w; t++ {
		var forms []gf2.Form
		for q := 0; q < 1<<t; q++ {
			den := subtreeCount(counts, w, q, t)
			if den == 0 {
				continue
			}
			if forms == nil {
				forms = fam.WindowForms(uint64(id), m-(t+1)*b, b)
			}
			num := subtreeCount(counts, w, q<<1|1, t+1)
			coin, err := gf2.NewCoinFromForms(forms, num, den)
			if err != nil {
				return nil, fmt.Errorf("clique: node %d coin for prefix %b: %w", id, q, err)
			}
			tab[1<<t-1+q] = batchCoin{coin: coin, den: den}
		}
	}
	return tab, nil
}

// edgeExpCoins sets out[k] = E[X_e | lane k's assignment] for a
// conflict edge over the w-bit batch, for every lane of lb's current
// chunk, from the endpoints' leaf counts ku, kv and coin tables cu, cv:
// survival requires both endpoints to pick the same path, and each path
// contributes the reciprocal surviving list sizes. kv == nil (the
// neighbor's counts never arrived) contributes 0. pr is scratch for the
// per-path lane probabilities and events the ProbConj scratch buffer;
// the possibly grown buffer is returned for reuse. Per lane, the paths,
// the coin events and the sum run in the order of the scalar reference
// (edgeExpCoins in oracle_test.go), so every lane is bit-identical to
// it.
func edgeExpCoins(lb *gf2.LaneBasis, out, pr *[64]float64, ku, kv []uint64, cu, cv []batchCoin, w int, events []gf2.CoinEvent) []gf2.CoinEvent {
	*out = [64]float64{}
	if kv == nil {
		return events
	}
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
		lb.ProbConj(events, pr)
		inv := 1/float64(ku[p]) + 1/float64(kv[p])
		for k := 0; k < lb.Lanes(); k++ {
			if pr[k] > 0 {
				out[k] += pr[k] * inv
			}
		}
	}
	return events
}

// localFinish routes the uncolored subgraph and lists to the leader,
// solves greedily there, and distributes the colors (Lenzen routing +
// one broadcast-style round).
func (st *cliqueRun) localFinish(inst *graph.Instance) error {
	out := make([][]Routed, st.n)
	for v, nd := range st.nodes {
		if !nd.alive {
			continue
		}
		for _, u := range nd.aliveNbr {
			if int(u) > v {
				out[v] = append(out[v], Routed{Dst: 0, Payload: Message{0, uint64(v), uint64(u)}})
			}
		}
		for _, c := range nd.list {
			out[v] = append(out[v], Routed{Dst: 0, Payload: Message{1, uint64(v), uint64(c)}})
		}
	}
	in, err := st.sim.RouteAll(out)
	if err != nil {
		return err
	}
	// Leader assembles and greedily list-colors the residual instance.
	type resid struct {
		nbrs []int
		list []uint32
	}
	sub := map[int]*resid{}
	get := func(v int) *resid {
		if sub[v] == nil {
			sub[v] = &resid{}
		}
		return sub[v]
	}
	if nd := st.nodes[0]; nd.alive {
		for _, u32 := range nd.aliveNbr {
			u := int(u32)
			get(0).nbrs = append(get(0).nbrs, u)
			get(u).nbrs = append(get(u).nbrs, 0)
		}
		get(0).list = append(get(0).list, nd.list...)
	}
	for _, rm := range in[0] {
		p := rm.Payload
		switch p[0] {
		case 0:
			v, u := int(p[1]), int(p[2])
			get(v).nbrs = append(get(v).nbrs, u)
			get(u).nbrs = append(get(u).nbrs, v)
		case 1:
			get(int(p[1])).list = append(get(int(p[1])).list, uint32(p[2]))
		}
	}
	assigned := map[int]uint32{}
	// Deterministic order: ascending node ID.
	ids := make([]int, 0, len(sub))
	//sbw:orderinvariant key collection only; ids is sorted before any order-sensitive use
	for v := range sub {
		ids = append(ids, v)
	}
	sortInts(ids)
	for _, v := range ids {
		taken := map[uint32]bool{}
		for _, u := range sub[v].nbrs {
			if c, ok := assigned[u]; ok {
				taken[c] = true
			}
		}
		found := false
		for _, c := range sub[v].list {
			if !taken[c] {
				assigned[v] = c
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("clique: leader greedy failed at node %d", v)
		}
	}
	// Distribute colors (1 round; the leader unicasts each node its
	// color) in ascending node ID — the sorted ids slice, not the
	// assigned map, so the leader's outbox order is deterministic.
	outX := NewOut(st.n)
	for _, v := range ids {
		c := assigned[v]
		if v == 0 {
			st.nodes[0].color = c
			st.nodes[0].colored = true
			st.nodes[0].alive = false
			continue
		}
		outX[0] = append(outX[0], Directed{To: int32(v), Payload: Message{uint64(c)}})
	}
	inX, err := st.sim.Exchange(outX)
	if err != nil {
		return err
	}
	for _, nd := range st.nodes {
		if msg, ok := Lookup(inX[nd.id], 0); ok {
			nd.color = uint32(msg[0])
			nd.colored = true
			nd.alive = false
		}
	}
	return nil
}

// leafCounts returns K(p) for every w-bit path p over the batch whose
// most significant bit position is hi.
func leafCounts(cands []uint32, hi, w int) []uint64 {
	counts := make([]uint64, 1<<w)
	for _, c := range cands {
		p := 0
		for t := 0; t < w; t++ {
			p = p<<1 | int(c>>uint(hi-t)&1)
		}
		counts[p]++
	}
	return counts
}

// subtreeCount returns S(q) = Σ_{p extends q} K(p) for a t-bit prefix q.
func subtreeCount(counts []uint64, w, q, t int) uint64 {
	var s uint64
	width := w - t
	base := q << uint(width)
	for i := 0; i < 1<<width; i++ {
		s += counts[base+i]
	}
	return s
}

// filterByPath keeps candidates whose batch bits equal path.
func filterByPath(cands []uint32, hi, w int, path uint64) []uint32 {
	out := cands[:0]
	for _, c := range cands {
		p := uint64(0)
		for t := 0; t < w; t++ {
			p = p<<1 | uint64(c>>uint(hi-t)&1)
		}
		if p == path {
			out = append(out, c)
		}
	}
	return out
}

func removeColor(list []uint32, c uint32) []uint32 {
	for i, x := range list {
		if x == c {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func boolW(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
