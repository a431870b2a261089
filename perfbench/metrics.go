package main

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract with BENCHMARK.json: the smoke test
// checks that the two agree.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported by an untraced run (-trace 0), on every
// workload. On thm11-regular and cor12-grid-ckpt a "request" is one
// whole Color* run; on serve-mix it is one protocol request.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
}

// layerMetrics are reported by a traced run (-trace 1), on every
// workload.
var layerMetrics = []metricDef{
	{"graph.build_s", "s"},
	{"graph.instance_s", "s"},
	{"graph.components_s", "s"},
	{"graph.verify_s", "s"},
	{"store.write_s", "s"},
	{"store.load_s", "s"},
	{"store.bytes", "bytes"},
	{"linial.color_s", "s"},
	{"gf2.edgepair_block_ns", "ns"},
	{"gf2.prob_one_block_ns", "ns"},
	{"gf2.sheet_fix_ns", "ns"},
	{"core.params_s", "s"},
	{"core.iter1_s", "s"},
	{"core.workers1_s", "s"},
	{"core.iterations", "count"},
	{"core.alive_after_iter1", "count"},
	{"core.seed_bits", "count"},
	{"core.phases", "count"},
	{"congest.bfs_s", "s"},
	{"congest.bfs_rounds", "count"},
	{"congest.converge_s", "s"},
	{"engine.barrier_ns_per_round", "ns"},
	{"engine.delivery_ns_per_msg", "ns"},
	{"engine.rounds", "count"},
	{"engine.messages", "count"},
	{"engine.words", "count"},
	{"engine.max_msg_words", "count"},
	{"netdecomp.build_s", "s"},
	{"netdecomp.clusters", "count"},
	{"netdecomp.classes", "count"},
	{"netdecomp.charged_rounds", "count"},
	{"netdecomp.class_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"clique.color_ms", "ms"},
	{"clique.rounds", "count"},
	{"clique.alloc_mb", "MiB"},
	{"mpc.color_ms", "ms"},
	{"mpc.rounds", "count"},
	{"mpc.alloc_mb", "MiB"},
	{"serve.lat_ms.congest", "ms"},
	{"serve.lat_ms.decomposed", "ms"},
	{"serve.lat_ms.clique", "ms"},
	{"serve.lat_ms.mpc", "ms"},
	{"serve.lat_ms.greedy", "ms"},
	{"serve.lat_ms.stats", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"trace.overhead_s", "s"},
}
