package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/netdecomp"
	"smallbandwidth/internal/serve"
	"smallbandwidth/internal/store"
)

// repResult is what one repetition, run in its own process, reports to
// the parent process.
type repResult struct {
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Outputs   map[string]string  `json:"outputs,omitempty"`  // the pinned outputs of the measured call
	Requests  []request          `json:"requests,omitempty"` // serve-mix: every request with its reply
	Attempted int                `json:"attempted"`          // checked operations, requests excluded
	Errors    []string           `json:"errors,omitempty"`   // failed checks, one per failed operation
	Metrics   map[string]float64 `json:"metrics,omitempty"`  // traced run: per-layer metrics
}

// fail records one failed operation.
func (r *repResult) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: an untraced repetition that the
// end-to-end metrics come from, and a traced run that times the calls
// into each module on the same inputs.
//
// A seed selects a set of inputs: repetition i of a run uses input
// i mod inputs, so one run's median covers several graphs instead of
// resting on the shape of one, and the traced run uses input 0.
type workload struct {
	name   string
	inputs int
	// pinInputs is how many inputs have outputs of their own to pin:
	// serve-mix's inputs are orders of the same requests.
	pinInputs int
	rep       func(sz sizes, seed uint64, input int, tmp string) *repResult
	traced    func(sz sizes, seed uint64, tmp string, tr *tracer) *repResult
}

var workloads = []workload{
	{name: "thm11-regular", inputs: colorInputs, pinInputs: colorInputs, rep: thm11Rep, traced: thm11Traced},
	{name: "cor12-grid-ckpt", inputs: colorInputs, pinInputs: colorInputs, rep: cor12Rep, traced: cor12Traced},
	{name: "serve-mix", inputs: colorInputs, pinInputs: 1, rep: serveRep, traced: serveTraced},
}

// colorInputs is the number of inputs per seed: graphs for the Color*
// workloads, deck orders for serve-mix.
const colorInputs = 8

// inputSeed is the generator seed of input i of a workload seed.
func inputSeed(seed uint64, input int) uint64 { return subSeed(seed, 16+input) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// congestOutputs are the pinned outputs of a Theorem 1.1 run on input
// i, keyed "g<i>.<name>".
func congestOutputs(input int, res *core.Result) map[string]string {
	colors, hash := serve.ColorsSummary(res.Colors)
	p := fmt.Sprintf("g%d.", input)
	return map[string]string{
		p + "hash":     fmt.Sprintf("%08x", hash),
		p + "colors":   strconv.Itoa(colors),
		p + "rounds":   strconv.Itoa(res.Stats.Rounds),
		p + "messages": strconv.FormatInt(res.Stats.Messages, 10),
	}
}

// decompOutputs are the pinned outputs of a Corollary 1.2 run on input
// i, keyed "g<i>.<name>".
func decompOutputs(input int, res *netdecomp.DecompResult) map[string]string {
	colors, hash := serve.ColorsSummary(res.Colors)
	p := fmt.Sprintf("g%d.", input)
	return map[string]string{
		p + "hash":           fmt.Sprintf("%08x", hash),
		p + "colors":         strconv.Itoa(colors),
		p + "charged_rounds": strconv.Itoa(res.ChargedRounds),
		p + "messages":       strconv.FormatInt(res.Messages, 10),
	}
}

// ---- thm11-regular: ColorCONGEST on a connected random regular graph.

func thm11Rep(sz sizes, seed uint64, input int, _ string) *repResult {
	r := &repResult{Attempted: 1}
	t := time.Now()
	g, err := regular(sz.RegN, sz.RegD, inputSeed(seed, input))
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	inst := graph.DeltaPlusOneInstance(g)
	r.SetupS = time.Since(t).Seconds()

	t = time.Now()
	res, err := core.ListColorCONGEST(inst, core.Options{})
	r.RunS = time.Since(t).Seconds()
	if err != nil {
		r.fail("ColorCONGEST: %v", err)
		return r
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		r.fail("ColorCONGEST coloring: %v", err)
		return r
	}
	r.Outputs = congestOutputs(input, res)
	return r
}

func thm11Traced(sz sizes, seed uint64, tmp string, tr *tracer) *repResult {
	r := &repResult{Attempted: 1}
	root := tr.begin("thm11-regular", 0, 1)
	var (
		g   *graph.Graph
		err error
	)
	tr.do("graph.build", root, 1, func() { g, err = regular(sz.RegN, sz.RegD, inputSeed(seed, 0)) })
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	var inst *graph.Instance
	tr.do("graph.instance", root, 1, func() { inst = graph.DeltaPlusOneInstance(g) })
	var res *core.Result
	r.RunS = tr.do("core.color", root, 1, func() { res, err = core.ListColorCONGEST(inst, core.Options{}) })
	if err != nil {
		r.fail("ColorCONGEST: %v", err)
		return r
	}
	tr.do("graph.verify", root, 1, func() { err = inst.VerifyColoring(res.Colors) })
	tr.end(root)
	if err != nil {
		r.fail("ColorCONGEST coloring: %v", err)
		return r
	}
	r.Outputs = congestOutputs(0, res)

	probes := tr.begin("probes", 0, 2)
	tr.do("graph.components", probes, 2, func() { g.ComponentCount() })
	storeBytes := storeProbe(r, tr, probes, tmp, g)
	pg := probeGraphs(sz, g)
	r.Metrics = probeLayers(r, tr, probes, tmp, sz, probeInputs{
		flow:        g,
		coreInst:    inst,
		coreRes:     res,
		engineStats: res.Stats,
		decompInst:  inst,
		cliqueInst:  graph.DeltaPlusOneInstance(pg["clq0"]),
		mpcInst:     graph.DeltaPlusOneInstance(pg["mpc0"]),
		serve:       pg,
		deck:        probeDeck(seed, sz.ProbeRepeats),
	})
	tr.end(probes)
	graphStoreMetrics(r.Metrics, tr, storeBytes)
	return r
}

// ---- cor12-grid-ckpt: the Corollary 1.2 pipeline checkpointing at
// every class boundary, as colorcli -model decomposed
// -checkpoint-every 1 runs it.

func cor12Rep(sz sizes, seed uint64, input int, tmp string) *repResult {
	r := &repResult{Attempted: 1}
	t := time.Now()
	g, err := relabeledGrid(sz.GridSide, inputSeed(seed, input))
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	inst := graph.DeltaPlusOneInstance(g)
	r.SetupS = time.Since(t).Seconds()

	t = time.Now()
	pr, err := runPipeline(inst, filepath.Join(tmp, "cor12.snap"), nil, 0)
	r.RunS = time.Since(t).Seconds()
	if err == nil {
		err = inst.VerifyColoring(pr.res.Colors)
	}
	if err == nil {
		err = pr.checkCheckpoint()
	}
	if err != nil {
		r.fail("%v", err)
		return r
	}
	r.Outputs = decompOutputs(input, pr.res)
	return r
}

func cor12Traced(sz sizes, seed uint64, tmp string, tr *tracer) *repResult {
	r := &repResult{Attempted: 1}
	root := tr.begin("cor12-grid-ckpt", 0, 1)
	var (
		g   *graph.Graph
		err error
	)
	tr.do("graph.build", root, 1, func() { g, err = relabeledGrid(sz.GridSide, inputSeed(seed, 0)) })
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	var inst *graph.Instance
	tr.do("graph.instance", root, 1, func() { inst = graph.DeltaPlusOneInstance(g) })
	var pr *pipelineRun
	pipe := tr.begin("netdecomp.pipeline", root, 1)
	pr, err = runPipeline(inst, filepath.Join(tmp, "cor12.snap"), tr, pipe)
	r.RunS = tr.end(pipe)
	if err == nil {
		tr.do("graph.verify", root, 1, func() { err = inst.VerifyColoring(pr.res.Colors) })
	}
	if err == nil {
		err = pr.checkCheckpoint()
	}
	tr.end(root)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	r.Outputs = decompOutputs(0, pr.res)

	probes := tr.begin("probes", 0, 2)
	tr.do("graph.components", probes, 2, func() { g.ComponentCount() })
	storeBytes := storeProbe(r, tr, probes, tmp, g)
	// Core runs on what the pipeline hands it: the disjoint union of the
	// first decomposition class's clusters, with their lists.
	var d *netdecomp.Decomposition
	buildS := tr.do("netdecomp.build", probes, 2, func() { d, err = netdecomp.Build(g) })
	if err != nil {
		r.Attempted++
		r.fail("netdecomp.Build: %v", err)
		return r
	}
	classInst := classInstance(inst, d, 1)
	// The engine counts of the whole pipeline: class runs' rounds and
	// traffic summed, the widest message maximized.
	var engine congest.Stats
	for _, st := range pr.res.ClassStats {
		engine.Rounds += st.Rounds
		engine.Messages += st.Messages
		engine.Words += st.Words
		engine.MaxMessageWords = max(engine.MaxMessageWords, st.MaxMessageWords)
	}
	pg := probeGraphs(sz, g)
	r.Metrics = probeLayers(r, tr, probes, tmp, sz, probeInputs{
		flow:        g,
		coreInst:    classInst,
		engineStats: engine,
		decompInst:  inst,
		pipeline:    pr,
		buildS:      buildS,
		cliqueInst:  graph.DeltaPlusOneInstance(pg["clq0"]),
		mpcInst:     graph.DeltaPlusOneInstance(pg["mpc0"]),
		serve:       pg,
		deck:        probeDeck(seed, sz.ProbeRepeats),
	})
	tr.end(probes)
	graphStoreMetrics(r.Metrics, tr, storeBytes)
	return r
}

// classInstance is the sub-instance the batched pipeline colors for
// one decomposition class before any exchange: the subgraph induced by
// the class's cluster members, with their original lists.
func classInstance(inst *graph.Instance, d *netdecomp.Decomposition, class int) *graph.Instance {
	var members []int
	for _, c := range d.Clusters {
		if c.Color == class {
			members = append(members, c.Members...)
		}
	}
	sub, orig := inst.G.InducedSubgraph(members)
	lists := make([][]uint32, sub.N())
	for i, v := range orig {
		lists[i] = slices.Clone(inst.Lists[v])
	}
	return &graph.Instance{G: sub, C: inst.C, Lists: lists}
}

// pipelineRun is one checkpointed Corollary 1.2 run.
type pipelineRun struct {
	res     *netdecomp.DecompResult
	path    string    // the checkpoint file, rewritten at every boundary
	lastCk  []byte    // the bytes of the last checkpoint written
	classS  []float64 // per class: previous boundary (or the call) to its boundary
	encodeS []float64 // per boundary: EncodeCheckpoint
}

// runPipeline runs ListColorDecomposedResumable with a checkpoint
// encoded and written atomically at every class boundary. With a
// tracer, the class intervals (timestamps taken in the checkpoint
// callback), the encodes and the writes become child spans of parent.
func runPipeline(inst *graph.Instance, path string, tr *tracer, parent int) (*pipelineRun, error) {
	opts := core.Options{}
	pr := &pipelineRun{path: path}
	var ckErr error
	prev := time.Now()
	onCk := func(cp *netdecomp.PipelineCheckpoint) {
		at := time.Now()
		pr.classS = append(pr.classS, at.Sub(prev).Seconds())
		var raw []byte
		encode := func() { raw = netdecomp.EncodeCheckpoint(&netdecomp.Checkpoint{Inst: inst, Opts: opts, State: cp}) }
		var err error
		write := func() { err = store.WriteFileAtomic(path, raw) }
		if tr != nil {
			tr.add("netdecomp.class", parent, cp.Class, tr.at(prev), tr.at(at))
			pr.encodeS = append(pr.encodeS, tr.do("snapshot.encode", parent, cp.Class, encode))
			tr.do("store.write_atomic", parent, cp.Class, write)
		} else {
			t := time.Now()
			encode()
			pr.encodeS = append(pr.encodeS, time.Since(t).Seconds())
			write()
		}
		if err != nil && ckErr == nil {
			ckErr = err
		}
		pr.lastCk = raw
		prev = time.Now()
	}
	res, err := netdecomp.ListColorDecomposedResumable(inst, opts, onCk, nil)
	if err != nil {
		return nil, fmt.Errorf("ColorDecomposed: %w", err)
	}
	if ckErr != nil {
		return nil, fmt.Errorf("checkpoint write: %w", ckErr)
	}
	pr.res = res
	return pr, nil
}

// checkCheckpoint verifies that the checkpoint file on disk decodes to
// the finished pipeline with the same colors.
func (pr *pipelineRun) checkCheckpoint() error {
	raw, err := os.ReadFile(pr.path)
	if err != nil {
		return fmt.Errorf("read checkpoint: %w", err)
	}
	cp, err := netdecomp.DecodeCheckpoint(raw)
	if err != nil {
		return fmt.Errorf("decode checkpoint: %w", err)
	}
	st := cp.State
	if st.Class != pr.res.Decomp.Colors || !slices.Equal(st.Colors, pr.res.Colors) || st.ChargedRounds != pr.res.ChargedRounds {
		return fmt.Errorf("last checkpoint (class %d of %d) does not match the finished run", st.Class, pr.res.Decomp.Colors)
	}
	return nil
}

// ---- serve-mix: an in-process colorserve on loopback TCP under two
// closed-loop clients sending the seeded request mix.

func serveRep(sz sizes, seed uint64, input int, tmp string) *repResult {
	r := &repResult{}
	t := time.Now()
	gs, err := serveGraphs(sz, seed)
	var paths map[string]string
	if err == nil {
		paths, _, err = writeStores(tmp, gs, nil, 0)
	}
	var d *daemon
	if err == nil {
		d, err = startDaemon(paths, nil, 0)
	}
	if err != nil {
		r.Attempted = 1
		r.fail("setup: %v", err)
		return r
	}
	r.SetupS = time.Since(t).Seconds()
	defer d.stop()
	reqs, elapsed := d.runDeck(deck(seed, input), nil, 0)
	r.RunS = elapsed.Seconds()
	r.Requests = reqs
	return r
}

func serveTraced(sz sizes, seed uint64, tmp string, tr *tracer) *repResult {
	r := &repResult{}
	setup := tr.begin("serve-mix.setup", 0, 1)
	var (
		gs  map[string]*graph.Graph
		err error
	)
	tr.do("graph.build", setup, 1, func() { gs, err = serveGraphs(sz, seed) })
	var (
		paths      map[string]string
		storeBytes int
	)
	if err == nil {
		paths, storeBytes, err = writeStores(tmp, gs, tr, setup)
	}
	var d *daemon
	if err == nil {
		d, err = startDaemon(paths, tr, setup)
	}
	tr.end(setup)
	if err != nil {
		r.Attempted = 1
		r.fail("setup: %v", err)
		return r
	}
	deckSpan := tr.begin("serve-mix.deck", 0, 1)
	reqs, elapsed := d.runDeck(deck(seed, 0), tr, deckSpan)
	tr.end(deckSpan)
	d.stop()
	r.RunS = elapsed.Seconds()
	r.Requests = reqs

	probes := tr.begin("probes", 0, 2)
	for _, name := range sortedKeys(gs) {
		g := gs[name]
		tr.do("graph.components", probes, 2, func() { g.ComponentCount() })
		inst := graph.DeltaPlusOneInstance(g)
		colors := inst.Greedy()
		r.Attempted++
		tr.do("graph.verify", probes, 2, func() { err = inst.VerifyColoring(colors) })
		if err != nil {
			r.fail("greedy coloring of %s: %v", name, err)
		}
	}
	// The module probes run on the first graph of each request class.
	regInst := graph.DeltaPlusOneInstance(gs["reg0"])
	var coreRes *core.Result
	r.Attempted++
	tr.do("core.color", probes, 2, func() { coreRes, err = core.ListColorCONGEST(regInst, core.Options{}) })
	if err == nil {
		err = regInst.VerifyColoring(coreRes.Colors)
	}
	if err != nil {
		r.fail("ColorCONGEST on reg0: %v", err)
		return r
	}
	r.Metrics = probeLayers(r, tr, probes, tmp, sz, probeInputs{
		flow:        gs["reg0"],
		coreInst:    regInst,
		coreRes:     coreRes,
		engineStats: coreRes.Stats,
		decompInst:  graph.DeltaPlusOneInstance(gs["grid0"]),
		cliqueInst:  graph.DeltaPlusOneInstance(gs["clq0"]),
		mpcInst:     graph.DeltaPlusOneInstance(gs["mpc0"]),
		served:      reqs,
	})
	tr.end(probes)
	graphStoreMetrics(r.Metrics, tr, storeBytes)
	return r
}

// storeProbe writes g in the store format and loads it back (validated),
// as serve-mix does for its graphs, and returns the file size.
func storeProbe(r *repResult, tr *tracer, parent int, tmp string, g *graph.Graph) int {
	path := filepath.Join(tmp, "probe.sbwg")
	r.Attempted++
	var err error
	tr.do("store.write", parent, 2, func() { err = store.Write(path, g) })
	if err != nil {
		r.fail("store.Write: %v", err)
		return 0
	}
	var (
		back *graph.Graph
		info *store.Info
	)
	tr.do("store.load", parent, 2, func() { back, info, err = store.Load(path) })
	if err != nil {
		r.fail("store.Load: %v", err)
		return 0
	}
	if !back.Equal(g) {
		r.fail("store round trip changed the graph")
	}
	return info.Bytes
}

// graphStoreMetrics fills the graph and store layer metrics from the
// spans the workload recorded.
func graphStoreMetrics(m map[string]float64, tr *tracer, storeBytes int) {
	if m == nil {
		return
	}
	m["graph.build_s"] = tr.total("graph.build")
	m["graph.instance_s"] = tr.total("graph.instance")
	m["graph.components_s"] = tr.total("graph.components")
	m["graph.verify_s"] = tr.total("graph.verify")
	m["store.write_s"] = tr.total("store.write")
	m["store.load_s"] = tr.total("store.load")
	m["store.bytes"] = float64(storeBytes)
}
