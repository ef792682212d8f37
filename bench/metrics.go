package main

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (a test holds the two together).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of the system sees, as far as the reference host
// lets it be gated. Two of the issue's six are not here:
//
//   - failed_share: the benchmark contract wants end-to-end metrics that are
//     never 0, and a healthy run fails nothing. Failures are counted against
//     the number attempted in every result line, and failed_share is a
//     per-layer metric.
//   - decide_ms_p90: on the 2-CPU host a noisy minute raises the tail by
//     45 % where it raises the median by 15 %; over two sets of ten runs its
//     spread reached 39 % on sim-iter-1k, against at most 13 % for p50. A
//     gated metric that noisy rejects one neutral change in ten. It is
//     client.decide_ms_p90 among the per-layer metrics, beside p99 and max.
//
// Every bound sits at the contract's cap of a quarter. The host shares its
// memory system with neighbours: over clean sets of ten runs per workload
// the interquartile spread of these metrics was 3 to 19 % and the shift
// between two sets' medians up to 19 % (21 % for setup_s) when the host
// slowed between the sets. A bound below the host's own spread would
// reject the benchmark, not a regression. Gains are
// claimed by paired runs, which cancel that drift; the bound only fences
// regressions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"decide_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_decision", "ms", "lower", 0.25},
}

// machineProtocols are the protocols the workloads run; each gets a traced
// alias and its own machine.<p>.* metrics.
var machineProtocols = []string{"acs", "aad", "bw", "iterative"}

// metricDefs is what a pass reports: the gated metrics with tracing off,
// the per-layer ones with it on.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// perLayer is built once; every workload reports every entry, 0 where a
// layer is not on the workload's path.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "failed_share", unit: "ratio", better: "lower"},

		{name: "service.submit_us_p50", unit: "us", better: "lower"},
		{name: "service.client_rtt_us", unit: "us", better: "lower"},
		{name: "service.dispatch_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "service.dispatch_allocs_per_frame", unit: "allocs/frame", better: "lower"},
		{name: "service.late_frames_per_decision", unit: "frames/decision", better: "lower"},
		{name: "service.pending_shed", unit: "count", better: "lower"},
		{name: "service.refused", unit: "count", better: "lower"},
		{name: "service.bad_frames", unit: "count", better: "lower"},
		{name: "service.active_after_drain", unit: "count", better: "lower"},

		{name: "cluster.frames_per_decision", unit: "frames/decision", better: "lower"},
		{name: "cluster.queue_waits_per_decision", unit: "1/decision", better: "lower"},
		{name: "cluster.queue_shed", unit: "count", better: "lower"},
		{name: "cluster.queue_depth_max", unit: "count", better: "lower"},
		{name: "cluster.queue_drain_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "cluster.mux_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "cluster.oneshot_connect_ms", unit: "ms", better: "lower"},

		{name: "wire.encode_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "wire.decode_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "wire.decode_allocs_per_frame", unit: "allocs/frame", better: "lower"},
		{name: "wire.peek_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "wire.read_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "wire.write_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "wire.bytes_per_frame", unit: "bytes", better: "lower"},
		{name: "wire.bytes_per_decision", unit: "bytes", better: "lower"},

		{name: "node.loop_ns_per_frame", unit: "ns/frame", better: "lower"},
		{name: "node.loop_allocs_per_frame", unit: "allocs/frame", better: "lower"},
	}
	for _, p := range machineProtocols {
		defs = append(defs,
			metricDef{name: "machine." + p + ".deliver_ns_mean", unit: "ns", better: "lower"},
			metricDef{name: "machine." + p + ".deliveries_per_decision", unit: "1/decision", better: "lower"},
			metricDef{name: "machine." + p + ".cpu_share", unit: "ratio", better: "lower"},
		)
	}
	return append(defs,
		metricDef{name: "machine.acs.rbc_ns_mean", unit: "ns", better: "lower"},
		metricDef{name: "machine.acs.aba_ns_mean", unit: "ns", better: "lower"},
		metricDef{name: "machine.aad.rbc_ns_mean", unit: "ns", better: "lower"},
		metricDef{name: "machine.bw.val_ns_mean", unit: "ns", better: "lower"},
		metricDef{name: "machine.bw.complete_ns_mean", unit: "ns", better: "lower"},

		metricDef{name: "sim.deliveries_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "sim.steps_per_decision", unit: "count", better: "lower"},
		metricDef{name: "sim.runner_ns_per_delivery", unit: "ns", better: "lower"},
		metricDef{name: "sim.parallel_w2_speedup", unit: "ratio", better: "higher"},
		metricDef{name: "transport.pool_ns_per_msg", unit: "ns", better: "lower"},

		metricDef{name: "graph.named_ms", unit: "ms", better: "lower"},
		metricDef{name: "cond.check3reach_ms", unit: "ms", better: "lower"},
		metricDef{name: "bw.newproto_ms", unit: "ms", better: "lower"},
		metricDef{name: "repro.materialize_ms", unit: "ms", better: "lower"},

		metricDef{name: "go.allocs_per_decision", unit: "1/decision", better: "lower"},
		metricDef{name: "go.alloc_kb_per_decision", unit: "kb", better: "lower"},
		metricDef{name: "go.gc_cpu_share", unit: "ratio", better: "lower"},
		metricDef{name: "go.rss_peak_mb", unit: "mb", better: "lower"},
		metricDef{name: "go.heap_live_mb_end", unit: "mb", better: "lower"},
		metricDef{name: "go.goroutines_peak", unit: "count", better: "lower"},

		metricDef{name: "client.decide_ms_p90", unit: "ms", better: "lower"},
		metricDef{name: "client.decide_ms_p99", unit: "ms", better: "lower"},
		metricDef{name: "client.decide_ms_max", unit: "ms", better: "lower"},
		metricDef{name: "client.elapsed_ms_p50", unit: "ms", better: "lower"},
		metricDef{name: "client.sched_late_ms_p99", unit: "ms", better: "lower"},
		metricDef{name: "client.slo_rate_per_s", unit: "1/s", better: "higher"},

		metricDef{name: "budget.machine_share", unit: "ratio", better: "higher"},
		metricDef{name: "budget.live_path_share", unit: "ratio", better: "higher"},
		metricDef{name: "budget.unexplained_share", unit: "ratio", better: "lower"},
		metricDef{name: "tracing.overhead_share", unit: "ratio", better: "lower"},
	)
}()

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's last line of standard output: exactly these keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill gives every listed metric a value, 0 where the run set none. A value
// filed under a name that is not listed is a bug in this program.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, listed := out[name]; !listed {
			panic("bench: value filed under unlisted metric " + name)
		}
	}
	return out
}
