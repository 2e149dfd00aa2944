package main

// metricDef names one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"passed_share", "share", "higher"},
	{"proven_share", "share", "higher"},
	{"ilp_freqs_vs_heur", "ratio", "lower"},
	{"ilp_combos_vs_heur", "ratio", "lower"},
	{"patterns", "count", "lower"},
	{"hdf_prop", "count", "higher"},
}

// perLayer are the metrics of a traced run (--trace 1), named by module;
// README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"circuit.generate_s", "s", "lower"},
	{"sta.analyze_s", "s", "lower"},
	{"fault.partition_s", "s", "lower"},
	{"fault.hdf_candidates", "count", "higher"},
	{"atpg.generate_s", "s", "lower"},
	{"atpg.backtracks", "count", "lower"},
	{"atpg.aborted", "count", "lower"},
	{"atpg.untestable", "count", "lower"},
	{"atpg.raw_patterns", "count", "lower"},
	{"atpg.patterns", "count", "lower"},
	{"atpg.random_share", "share", "higher"},
	{"atpg.coverage", "share", "higher"},
	{"detect.run_s", "s", "lower"},
	{"detect.pairs", "count", "higher"},
	{"detect.pairs_per_s", "1/s", "higher"},
	{"detect.targets", "count", "higher"},
	{"dot.discretize_s", "s", "lower"},
	{"dot.candidates", "count", "lower"},
	{"schedule.conv_s", "s", "lower"},
	{"schedule.heur_s", "s", "lower"},
	{"schedule.ilp_s", "s", "lower"},
	{"schedule.partial_s", "s", "lower"},
	{"schedule.validate_s", "s", "lower"},
	{"ilp.solves", "count", "lower"},
	{"ilp.nodes", "count", "lower"},
	{"ilp.nodes_per_s", "1/s", "higher"},
	{"ilp.incumbents", "count", "lower"},
	{"ilp.unproven", "count", "lower"},
	{"ilp.max_gap", "share", "lower"},
	{"exper.circuit_max_s", "s", "lower"},
	{"exper.busy_share", "share", "higher"},
	{"trace.overhead_share", "share", "lower"},
}
