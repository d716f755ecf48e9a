package main

import "fmt"

// metricDef declares a metric a run reports.
type metricDef struct {
	name, unit string
	lower      bool // true when a lower value is better
}

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"throughput_rps", "1/s", false},
	{"goodput_rps", "1/s", false},
	{"latency_p50_us", "us", true},
	{"latency_p99_us", "us", true},
	{"lookup_p50_us", "us", true},
	{"box256_p50_us", "us", true},
	{"box4k_p50_us", "us", true},
	{"pages_p50_us", "us", true},
	{"batch_p50_us", "us", true},
	{"build_grid_s", "s", true},
	{"build_points_s", "s", true},
	{"bytes_per_record", "B", true},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		// The v2 write and open of the served (or ingested) grid file. They
		// vary by more than a quarter from run to run, so they are layer
		// metrics without a bound rather than end-to-end metrics.
		{"write_ms", "ms", true},
		{"open_ms", "ms", true},
		{"harness.rtt_us", "us", true},
	}
	perOp := func(prefix, unit string, lower bool) {
		for _, op := range opNames {
			defs = append(defs, metricDef{prefix + op, unit, lower})
		}
	}
	perOp("transport.us.", "us", true)
	perOp("server.handler_us.", "us", true)
	perOp("server.self_us.", "us", true)
	perOp("server.decode_us.", "us", true)
	perOp("server.resp_bytes.", "B", true)
	defs = append(defs,
		metricDef{"server.encode_ns_per_row", "ns", true},
		metricDef{"server.shed", "count", true},
		metricDef{"server.expired", "count", true},
	)
	perOp("engine.us.", "us", true)
	for _, op := range []string{"box256", "box4k"} {
		defs = append(defs,
			metricDef{"engine.rows." + op, "count", true},
			metricDef{"engine.rank_span." + op, "count", true},
			metricDef{"engine.runs." + op, "count", true},
		)
	}
	defs = append(defs, metricDef{"engine.page_runs.pages", "count", true})
	perOp("router.handler_us.", "us", true)
	perOp("router.upstream_us.", "us", true)
	perOp("router.self_us.", "us", true)
	perOp("router.parts.", "count", true)
	perOp("router.reply_bytes.", "B", true)
	defs = append(defs,
		metricDef{"router.hedges", "count", true},
		metricDef{"router.retries", "count", true},
		metricDef{"router.partials", "count", true},
		metricDef{"router.ejections", "count", true},
		metricDef{"router.attempts_per_part", "ratio", true},
		metricDef{"process.allocs_per_op", "count", true},
		metricDef{"process.bytes_per_op", "B", true},
		metricDef{"process.gc_cycles", "count", true},
		metricDef{"process.gc_pause_ms", "ms", true},
		metricDef{"process.cpu_ms_per_kop", "ms", true},
	)
	perOp("trace.client_us.", "us", true)
	perOp("trace.overhead_us.", "us", true)
	defs = append(defs,
		metricDef{"trace.overhead_pct", "%", true},
		metricDef{"trace.coverage.lookup", "ratio", false},
		metricDef{"trace.coverage.box4k", "ratio", false},
		metricDef{"graph.build_ms.points", "ms", true},
		metricDef{"order.solve_ms.points", "ms", true},
		metricDef{"order.closed_form_ms.grid", "ms", true},
		metricDef{"order.from_ranks_ms.grid", "ms", true},
		metricDef{"storage.rows_ms.grid", "ms", true},
		metricDef{"rtree.pack_ms.points", "ms", true},
		metricDef{"build.wall_ms.grid", "ms", true},
		metricDef{"build.wall_ms.points", "ms", true},
		metricDef{"build.allocs.grid", "count", true},
		metricDef{"build.allocs.points", "count", true},
		metricDef{"build.bytes.grid", "B", true},
		metricDef{"build.bytes.points", "B", true},
		metricDef{"build.coverage.grid", "ratio", false},
		metricDef{"build.coverage.points", "ratio", false},
	)
	for _, in := range []string{"grid", "points"} {
		defs = append(defs,
			metricDef{"codec.write_ms." + in, "ms", true},
			metricDef{"codec.open_ms." + in, "ms", true},
			metricDef{"codec.file_bytes." + in, "B", true},
		)
	}
	return defs
}

// finish checks the run reported exactly its declared metric set. On a
// traced run, a declared layer metric the workload did not measure is
// reported as 0.
func finish(rep *report, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		m, ok := rep.metrics[d.name]
		switch {
		case !ok && trace:
			rep.set(d.name, d.unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
	for name := range rep.metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
