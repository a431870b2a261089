package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"smallbandwidth/internal/clique"
	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
	"smallbandwidth/internal/mpc"
	"smallbandwidth/internal/netdecomp"
	"smallbandwidth/internal/prng"
	"smallbandwidth/internal/serve"
)

// probeInputs are the inputs a traced run hands to the module probes:
// each module is timed on the input the workload feeds it, and results
// the workload already computed are reused rather than recomputed.
type probeInputs struct {
	flow        *graph.Graph    // linial, congest and engine probes
	coreInst    *graph.Instance // core probes
	coreRes     *core.Result    // default-workers run on coreInst, if already made
	engineStats congest.Stats   // the workload run's exact engine counts
	decompInst  *graph.Instance // netdecomp and snapshot probes
	pipeline    *pipelineRun    // checkpointed pipeline on decompInst, if already made
	buildS      float64         // netdecomp.Build time, if already measured
	cliqueInst  *graph.Instance
	mpcInst     *graph.Instance
	served      []request               // requests the workload served, if it serves
	serve       map[string]*graph.Graph // otherwise: resident graphs of the serve probe
	deck        []string                // and its request lines
}

// probeLayers times every module below the workload's entry point and
// returns the per-layer metrics other than graph and store, which the
// workload fills from its own spans. Every checked call counts in
// r.Attempted; a failed check is recorded in r.Errors.
func probeLayers(r *repResult, tr *tracer, parent int, tmp string, sz sizes, in probeInputs) map[string]float64 {
	m := map[string]float64{}
	check := func(what string, err error) bool {
		r.Attempted++
		if err != nil {
			r.fail("%s: %v", what, err)
			return false
		}
		return true
	}

	// linial: the full Linial schedule, centrally, on the workload graph.
	adj := make([][]int32, in.flow.N())
	for v := range adj {
		adj[v] = in.flow.Neighbors(v)
	}
	var (
		psi []uint64
		err error
	)
	m["linial.color_s"] = tr.do("linial.color", parent, 2, func() { psi, _, err = linial.ColorGraph(adj, in.flow.MaxDegree()) })
	if check("linial.ColorGraph", err) {
		check("linial coloring", properUint64(in.flow, psi))
	}

	// core: parameters, one Lemma 2.1 iteration, and the full run at one
	// worker, which must reproduce the default-workers coloring.
	var p *core.Params
	m["core.params_s"] = tr.do("core.params", parent, 2, func() { p, err = core.ComputeParams(in.coreInst, core.Options{}) })
	if !check("core.ComputeParams", err) {
		return m
	}
	def := in.coreRes
	if def == nil {
		tr.do("core.color", parent, 2, func() { def, err = core.ListColorCONGEST(in.coreInst, core.Options{}) })
		if err == nil {
			err = in.coreInst.VerifyColoring(def.Colors)
		}
		if !check("ColorCONGEST", err) {
			return m
		}
	}
	var it1 *core.Result
	m["core.iter1_s"] = tr.do("core.iter1", parent, 2, func() { it1, err = core.ListColorCONGEST(in.coreInst, core.Options{MaxIterations: 1}) })
	if check("ColorCONGEST MaxIterations=1", err) && len(it1.AliveAt) > 0 && len(it1.Colored) > 0 {
		m["core.alive_after_iter1"] = float64(it1.AliveAt[0] - it1.Colored[0])
	}
	var w1 *core.Result
	m["core.workers1_s"] = tr.do("core.workers1", parent, 2, func() { w1, err = core.ListColorCONGEST(in.coreInst, core.Options{Workers: 1}) })
	if check("ColorCONGEST Workers=1", err) {
		_, h1 := serve.ColorsSummary(w1.Colors)
		_, hd := serve.ColorsSummary(def.Colors)
		if h1 != hd || w1.Stats != def.Stats {
			r.fail("ColorCONGEST at Workers=1 gave hash %08x, %+v; default workers gave %08x, %+v", h1, w1.Stats, hd, def.Stats)
		}
	}
	m["core.iterations"] = float64(def.Iterations)
	m["core.seed_bits"] = float64(p.D)
	m["core.phases"] = float64(def.Iterations * p.LogC)

	// gf2: the bit-sliced kernels on sheets built from the run's family.
	g2, err := probeGF2(p, in.coreInst.G, sz.GF2Steps)
	if check("gf2 kernels", err) {
		for k, v := range g2 {
			m[k] = v
		}
	}

	// congest: BFS tree construction, then the same plus one lockstep
	// convergecast; the difference is the convergecast.
	bfsS, bfsRounds, convS, err := probeCongest(tr, parent, in.flow)
	if check("congest BFS/convergecast", err) {
		m["congest.bfs_s"] = bfsS
		m["congest.bfs_rounds"] = float64(bfsRounds)
		m["congest.converge_s"] = convS
	}

	// engine: per-round barrier and per-message delivery on synthetic
	// programs over the workload graph; exact counts from the run.
	barrier, delivery, err := probeEngine(tr, parent, in.flow, sz)
	if check("engine barrier/flood", err) {
		m["engine.barrier_ns_per_round"] = barrier
		m["engine.delivery_ns_per_msg"] = delivery
	}
	m["engine.rounds"] = float64(in.engineStats.Rounds)
	m["engine.messages"] = float64(in.engineStats.Messages)
	m["engine.words"] = float64(in.engineStats.Words)
	m["engine.max_msg_words"] = float64(in.engineStats.MaxMessageWords)

	// netdecomp and snapshot: the checkpointed pipeline.
	buildS := in.buildS
	if buildS == 0 {
		buildS = tr.do("netdecomp.build", parent, 2, func() { _, err = netdecomp.Build(in.decompInst.G) })
		if !check("netdecomp.Build", err) {
			return m
		}
	}
	m["netdecomp.build_s"] = buildS
	pr := in.pipeline
	if pr == nil {
		id := tr.begin("netdecomp.pipeline", parent, 2)
		pr, err = runPipeline(in.decompInst, filepath.Join(tmp, "probe.snap"), tr, id)
		tr.end(id)
		if err == nil {
			err = in.decompInst.VerifyColoring(pr.res.Colors)
		}
		if err == nil {
			err = pr.checkCheckpoint()
		}
		if !check("ColorDecomposed", err) {
			return m
		}
	}
	m["netdecomp.clusters"] = float64(len(pr.res.Decomp.Clusters))
	m["netdecomp.classes"] = float64(pr.res.Decomp.Colors)
	m["netdecomp.charged_rounds"] = float64(pr.res.ChargedRounds)
	classTotal := 0.0
	for _, s := range pr.classS {
		classTotal += s
	}
	m["netdecomp.class_s"] = (classTotal - buildS) / float64(len(pr.classS))
	m["snapshot.encode_s"] = mean(pr.encodeS)
	m["snapshot.bytes"] = float64(len(pr.lastCk))
	var cp *netdecomp.Checkpoint
	m["snapshot.decode_s"] = tr.do("snapshot.decode", parent, 2, func() { cp, err = netdecomp.DecodeCheckpoint(pr.lastCk) })
	if check("snapshot decode", err) && !slices.Equal(cp.State.Colors, pr.res.Colors) {
		r.fail("decoded checkpoint colors differ from the run's")
	}

	// clique and mpc: direct calls, for comparison with the same
	// requests served.
	var cr *clique.Result
	ms, alloc := timedAlloc(tr, "clique.color", parent, func() { cr, err = clique.ListColorClique(in.cliqueInst, clique.Options{}) })
	if err == nil {
		err = in.cliqueInst.VerifyColoring(cr.Colors)
	}
	if check("ColorClique", err) {
		m["clique.color_ms"], m["clique.alloc_mb"], m["clique.rounds"] = ms, alloc, float64(cr.Stats.Rounds)
	}
	var mr *mpc.Result
	ms, alloc = timedAlloc(tr, "mpc.color", parent, func() { mr, err = mpc.ListColorMPC(in.mpcInst, mpc.Options{}) })
	if err == nil {
		err = in.mpcInst.VerifyColoring(mr.Colors)
	}
	if check("ColorMPC", err) {
		m["mpc.color_ms"], m["mpc.alloc_mb"], m["mpc.rounds"] = ms, alloc, float64(mr.Rounds)
	}

	// serve: per-class median latency through the server.
	reqs := in.served
	if reqs == nil {
		reqs = serveProbe(r, tr, parent, tmp, in.serve, in.deck)
	}
	for class, lat := range classLatencies(reqs) {
		m["serve.lat_ms."+class] = median(lat)
	}
	// The workload's own requests are checked by the parent; probe
	// requests are checked here, repeats of a line against each other.
	first := map[string]string{}
	for _, q := range reqs {
		if in.served != nil {
			break
		}
		r.Attempted++
		prev, seen := first[q.Line]
		switch {
		case !strings.HasPrefix(q.Reply, "ok "):
			r.fail("probe request %q: %s", q.Line, q.Reply)
		case seen && q.Reply != prev:
			r.fail("probe request %q: reply %q differs from the earlier %q", q.Line, q.Reply, prev)
		}
		if !seen {
			first[q.Line] = q.Reply
		}
	}

	// Go runtime totals of this process.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["runtime.alloc_mb"] = float64(mem.TotalAlloc) / (1 << 20)
	m["runtime.mallocs"] = float64(mem.Mallocs)
	m["runtime.gc_cycles"] = float64(mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
	m["runtime.cpu_s"] = cpuSeconds()
	return m
}

// serveProbe serves the probe deck from the probe graphs; only the
// requests are traced.
func serveProbe(r *repResult, tr *tracer, parent int, tmp string, gs map[string]*graph.Graph, lines []string) []request {
	paths, _, err := writeStores(tmp, gs, nil, 0)
	var d *daemon
	if err == nil {
		d, err = startDaemon(paths, nil, 0)
	}
	if err != nil {
		r.Attempted++
		r.fail("serve probe setup: %v", err)
		return nil
	}
	defer d.stop()
	id := tr.begin("serve.probe", parent, 2)
	reqs, _ := d.runDeck(lines, tr, id)
	tr.end(id)
	return reqs
}

// classLatencies groups request latencies by request class.
func classLatencies(reqs []request) map[string][]float64 {
	lat := map[string][]float64{}
	for _, q := range reqs {
		if c := classOf(q.Line); c != "" {
			lat[c] = append(lat[c], q.Ms)
		}
	}
	return lat
}

// timedAlloc runs fn in a span and returns its duration in ms and the
// bytes it allocated, in MiB.
func timedAlloc(tr *tracer, name string, parent int, fn func()) (ms, allocMB float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.do(name, parent, 2, fn)
	runtime.ReadMemStats(&after)
	return s * 1000, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// properUint64 checks that colors differ across every edge of g.
func properUint64(g *graph.Graph, colors []uint64) error {
	if len(colors) != g.N() {
		return fmt.Errorf("%d colors for %d nodes", len(colors), g.N())
	}
	var bad error
	g.Edges(func(u, v int) {
		if bad == nil && colors[u] == colors[v] {
			bad = fmt.Errorf("edge (%d,%d) has both ends colored %d", u, v, colors[u])
		}
	})
	return bad
}

// componentRoots returns, per node, the smallest node ID of its
// connected component: the BFS root BuildBFSTree expects.
func componentRoots(g *graph.Graph) []int {
	root := make([]int, g.N())
	for v := range root {
		root[v] = -1
	}
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if root[s] >= 0 {
			continue
		}
		root[s] = s
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			for _, w := range g.Neighbors(queue[i]) {
				if root[w] < 0 {
					root[w] = s
					queue = append(queue, int(w))
				}
			}
		}
	}
	return root
}

// probeCongest builds BFS trees on g in one engine run, then builds them
// again and runs one lockstep convergecast of a per-node 1, which must
// sum to each component's size at every node.
func probeCongest(tr *tracer, parent int, g *graph.Graph) (bfsS float64, bfsRounds int, convS float64, err error) {
	roots := componentRoots(g)
	var st *congest.Stats
	bfsS = tr.do("congest.bfs", parent, 2, func() {
		st, err = congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) { congest.BuildBFSTree(ctx, roots[ctx.ID()]) })
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var wrong atomic.Int64
	both := tr.do("congest.bfs_converge", parent, 2, func() {
		_, err = congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
			t := congest.BuildBFSTree(ctx, roots[ctx.ID()])
			if sum := congest.ConvergeSumLockstep(ctx, t, 1, []float64{1}); sum[0] != float64(t.Size) {
				wrong.Add(1)
			}
		})
	})
	if err == nil && wrong.Load() > 0 {
		err = fmt.Errorf("convergecast sum differs from the tree size at %d nodes", wrong.Load())
	}
	return bfsS, st.Rounds, both - bfsS, err
}

// probeEngine times BarrierRounds empty rounds (every node ends each
// round with Next, so each round is one full barrier) and FloodRounds
// rounds in which every node messages every neighbor. Delivery per
// message is the flood's time beyond the same number of empty rounds.
func probeEngine(tr *tracer, parent int, g *graph.Graph, sz sizes) (barrierNs, deliveryNs float64, err error) {
	var st *congest.Stats
	bs := tr.do("engine.barrier", parent, 2, func() {
		st, err = congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
			for i := 0; i < sz.BarrierRounds; i++ {
				ctx.Next()
			}
		})
	})
	if err != nil {
		return 0, 0, err
	}
	if st.Rounds != sz.BarrierRounds || st.Messages != 0 {
		return 0, 0, fmt.Errorf("barrier program ran %d rounds with %d messages", st.Rounds, st.Messages)
	}
	barrierNs = bs * 1e9 / float64(sz.BarrierRounds)
	fs := tr.do("engine.flood", parent, 2, func() {
		st, err = congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
			for r := 0; r < sz.FloodRounds; r++ {
				for _, w := range ctx.Neighbors() {
					ctx.Send(int(w), congest.Message{congest.UserTagBase, uint64(r)})
				}
				ctx.Next()
			}
		})
	})
	if err != nil {
		return 0, 0, err
	}
	if want := int64(sz.FloodRounds) * int64(2*g.M()); st.Messages != want {
		return 0, 0, fmt.Errorf("flood delivered %d messages, want %d", st.Messages, want)
	}
	deliveryNs = (fs*1e9 - barrierNs*float64(sz.FloodRounds)) / float64(st.Messages)
	return barrierNs, deliveryNs, nil
}

var gf2Sink float64

// probeGF2 runs the phase loop's bit-sliced kernels the way the core
// does for one node: a sheet holding the node's own coin and as many
// neighbor coins as fit, built from the run's hash family at the run's
// coin accuracy, stepped through every seed bit (split, batched
// marginals, joint edge walks, fold) and restarted when the seed is
// fixed. Kernel calls are timed per step; the fold alone is timed in a
// separate loop because one call is shorter than a clock read.
func probeGF2(p *core.Params, g *graph.Graph, steps int) (map[string]float64, error) {
	fam, acc := p.Fam, p.B
	order := fam.Field().Order()
	v := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(v) {
			v = u
		}
	}
	nbrs := g.Neighbors(v)
	k := min(len(nbrs), 64/acc-1)
	if k < 1 {
		return nil, fmt.Errorf("no neighbor coin fits a sheet (degree %d, %d forms per coin)", len(nbrs), acc)
	}
	var sheet gf2.FormSheet
	coin := func(x uint64, num, den uint64) (gf2.BlockCoin, error) {
		forms := fam.OutputForms(x%order, acc)
		lane, ok := sheet.AddForms(forms)
		if !ok {
			return gf2.BlockCoin{}, fmt.Errorf("sheet refused %d forms (seed length %d)", len(forms), fam.SeedBits())
		}
		c, err := gf2.NewCoinFromForms(forms, num, den)
		return gf2.BlockCoin{Lane: lane, B: c.Bits(), T: c.Threshold()}, err
	}
	deg := uint64(len(nbrs))
	cu, err := coin(uint64(v), 1, deg+1)
	if err != nil {
		return nil, err
	}
	reqs := make([]gf2.BlockCoin, k)
	for i := range reqs {
		if reqs[i], err = coin(uint64(nbrs[i]), uint64(i%int(deg))+1, deg+1); err != nil {
			return nil, err
		}
	}
	sheet.Seal()
	sealed := sheet
	out := make([]gf2.ProbPair, k)
	basis := gf2.NewBasis()
	d := fam.SeedBits()
	vals := prng.New(uint64(v) + 1)
	var probOne, edgePair time.Duration
	j := 0
	sink := 0.0
	for i := 0; i < steps; i++ {
		t0 := time.Now()
		sb, ok := basis.Split(j)
		if !ok {
			return nil, fmt.Errorf("split refused at bit %d", j)
		}
		sb.ProbOnePairBlock(&sheet, reqs, out)
		t1 := time.Now()
		for q := range reqs {
			p1u0, p110, p1u1, p111 := sb.EdgePairBlock(&sheet, cu, reqs[q], out[q].P0, out[q].P1)
			sink += p1u0 + p110 + p1u1 + p111
		}
		t2 := time.Now()
		probOne += t1.Sub(t0)
		edgePair += t2.Sub(t1)
		sb.Release()
		val := vals.Bool()
		basis.FixBit(j, val)
		sheet.Fix(j, val)
		if j++; j == d {
			j = 0
			basis.Reset()
			sheet = sealed
		}
	}
	cycles := max(1, steps/d)
	bitVals := make([]bool, d)
	for b := range bitVals {
		bitVals[b] = vals.Bool()
	}
	t := time.Now()
	for c := 0; c < cycles; c++ {
		sheet = sealed
		for b, val := range bitVals {
			sheet.Fix(b, val)
		}
	}
	fix := time.Since(t)
	gf2Sink = sink + float64(sheet.Lanes())
	return map[string]float64{
		"gf2.prob_one_block_ns": float64(probOne.Nanoseconds()) / float64(steps),
		"gf2.edgepair_block_ns": float64(edgePair.Nanoseconds()) / float64(steps*k),
		"gf2.sheet_fix_ns":      float64(fix.Nanoseconds()) / float64(cycles*d),
	}, nil
}
