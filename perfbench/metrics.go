package main

import (
	"fmt"
	"math"
)

// def names one metric with its unit, its clock (host = measured wall
// time, virtual = the modeled Jetson, derived = computed from both or
// from two runs) and which direction is better.
type def struct{ name, unit, clock, better string }

// endToEndDefs are the metrics of the untraced run's result line. Each
// is defined, and never zero, on every workload; README.md states what
// each one measures per workload.
var endToEndDefs = []def{
	{"setup_s", "s", "host", "lower"},
	{"events_per_s", "1/s", "host", "higher"},
	{"chunk_ms_p50", "ms", "host", "lower"},
	{"heap_peak_mb", "MiB", "host", "lower"},
	{"vframes_per_s", "1/s", "virtual", "higher"},
	{"vlat_ms_p50", "ms", "virtual", "lower"},
}

// reportOnlyDefs are end-to-end metrics that appear in the report line
// only: zero or undefined on some workload, or (chunk_ms_p99) spread
// wider across runs on a shared host than any bound the result line
// may carry.
var reportOnlyDefs = []def{
	{"chunk_ms_p99", "ms", "host", "lower"},
	{"create_ms_p50", "ms", "host", "lower"},
	{"create_ms_p90", "ms", "host", "lower"},
	{"shed_frac", "frac", "virtual", "lower"},
	{"vlat_ms_p99", "ms", "virtual", "lower"},
	{"evedge_speedup", "x", "virtual", "higher"},
	{"error_rate", "frac", "both", "lower"},
}

// perLayerDefs are the metrics of the traced run's result line. A layer
// the workload does not exercise reports 0.
var perLayerDefs = func() []def {
	d := []def{
		{"scene.gen_s_per_sensor_s", "s/s", "host", "lower"},
		{"events.decode_us_per_kevent", "us/kevent", "host", "lower"},
		{"serve.ingest_us_per_kevent", "us/kevent", "host", "lower"},
		{"serve.pump_ms_per_round", "ms/round", "host", "lower"},
		{"serve.scrape_ms", "ms/scrape", "host", "lower"},
		{"serve.http_us_per_chunk", "us/chunk", "derived", "lower"},
		{"serve.queue_drop_frac", "frac", "virtual", "lower"},
		{"e2sf.convert_us_per_kevent", "us/kevent", "host", "lower"},
		{"e2sf.frames_per_kevent", "1/kevent", "virtual", "lower"},
		{"dsfa.merge_ratio", "x", "virtual", "higher"},
		{"dsfa.drop_frac", "frac", "virtual", "lower"},
	}
	for _, net := range mix {
		d = append(d, def{"dsfa.merge_ratio." + net, "x", "virtual", "higher"},
			def{"dsfa.drop_frac." + net, "frac", "virtual", "lower"})
	}
	d = append(d, def{"sched.occupancy", "x", "virtual", "higher"},
		def{"sched.dispatches_per_kframe", "1/kframe", "virtual", "lower"})
	for _, dev := range devices {
		d = append(d, def{"hw.util." + dev, "frac", "virtual", "higher"})
	}
	for _, st := range vstages {
		d = append(d, def{"vstage." + st + ".p50_ms", "ms/span", "virtual", "lower"},
			def{"vstage." + st + ".p99_ms", "ms/span", "virtual", "lower"})
	}
	d = append(d,
		def{"cluster.create_ms", "ms/create", "host", "lower"},
		def{"cluster.close_ms", "ms/close", "host", "lower"},
		def{"cluster.ingest_us_per_kevent", "us/kevent", "host", "lower"},
		def{"cluster.pump_ms_per_chunk", "ms/chunk", "host", "lower"},
		def{"nmp.remaps_per_session", "count", "virtual", "lower"},
		def{"nmp.search_ms", "ms/net", "derived", "lower"},
	)
	for l := 0; l < 4; l++ {
		d = append(d, def{fmt.Sprintf("pipeline.run_ms.L%d", l), "ms/run", "host", "lower"})
	}
	return append(d,
		def{"pipeline.evedge_speedup", "x", "virtual", "higher"},
		def{"go.alloc_bytes_per_event", "B/event", "host", "lower"},
		def{"go.gc_cpu_frac", "frac", "host", "lower"},
		def{"closure.host_self_gap", "frac", "derived", "lower"},
		def{"closure.vstage_gap", "frac", "derived", "lower"},
		def{"closure.trace_overhead_frac", "frac", "derived", "lower"},
	)
}()

func names(defs []def) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

var (
	endToEndNames = names(endToEndDefs)
	perLayerNames = names(perLayerDefs)
)

// metricSet is an annotated metric set under construction.
type metricSet map[string]metric

func (m metricSet) set(defs []def, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{v, d.unit, d.clock, d.better}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// endToEnd derives the end-to-end metrics of an untraced pass: host
// figures as medians over its repetitions, virtual ones from the
// first repetition (all repetitions agree bit for bit).
func endToEnd(p *pass) metricSet {
	m := metricSet{}
	virt := p.virtual
	m.set(endToEndDefs, "setup_s", median(p.setupS))
	m.set(endToEndDefs, "events_per_s", median(p.repRate))
	m.set(endToEndDefs, "chunk_ms_p50", median(p.repP50))
	m.set(reportOnlyDefs, "chunk_ms_p99", median(p.repP99))
	m.set(endToEndDefs, "heap_peak_mb", float64(p.heapPeak-p.heapBase)/(1<<20))
	for _, k := range []string{"vframes_per_s", "vlat_ms_p50"} {
		m.set(endToEndDefs, k, virt[k])
	}
	if len(p.repCreateP50) > 0 {
		m.set(reportOnlyDefs, "create_ms_p50", median(p.repCreateP50))
		m.set(reportOnlyDefs, "create_ms_p90", median(p.repCreateP90))
	}
	for _, k := range []string{"vlat_ms_p99", "shed_frac", "evedge_speedup"} {
		if v, ok := virt[k]; ok {
			m.set(reportOnlyDefs, k, v)
		}
	}
	return m
}

// closureTolerance is how far a closure ratio may sit from 1 before
// the report lists it as a finding.
const closureTolerance = 0.10

// perLayer derives the per-layer metrics from the traced pass (span
// times, the program's own counters) and the untraced pass (runtime
// counters, handler times), plus the closure report: how far the
// layers' summed self times and the virtual stage medians account for
// the end-to-end numbers, and what tracing cost.
func perLayer(u, t *pass, genPerSensorS float64) (metricSet, map[string]any) {
	m := metricSet{}
	for _, d := range perLayerDefs {
		m.set(perLayerDefs, d.name, 0)
	}
	for k, v := range t.layer {
		if _, ok := m[k]; ok {
			m.set(perLayerDefs, k, v)
		}
	}
	s := t.tr.summarize()
	perKEvent := func(name string) float64 {
		st := s.get(name)
		if st.n == 0 {
			return 0
		}
		return st.total * 1e6 / (float64(st.n) / 1000)
	}
	perOpMS := func(name string) float64 {
		st := s.get(name)
		if st.count == 0 {
			return 0
		}
		return st.total * 1e3 / float64(st.count)
	}
	m.set(perLayerDefs, "scene.gen_s_per_sensor_s", genPerSensorS)
	m.set(perLayerDefs, "events.decode_us_per_kevent", perKEvent("events.decode"))
	m.set(perLayerDefs, "serve.ingest_us_per_kevent", perKEvent("serve.ingest"))
	m.set(perLayerDefs, "serve.pump_ms_per_round", perOpMS("serve.pump"))
	m.set(perLayerDefs, "serve.scrape_ms", perOpMS("serve.scrape"))
	if ing := s.get("serve.ingest"); u.handlerN > 0 && ing.count > 0 {
		handler := u.handlerUS / float64(u.handlerN)
		m.set(perLayerDefs, "serve.http_us_per_chunk", handler-(s.get("events.decode").total+ing.total)*1e6/float64(ing.count))
	}
	m.set(perLayerDefs, "e2sf.convert_us_per_kevent", perKEvent("e2sf.convert"))
	m.set(perLayerDefs, "cluster.create_ms", perOpMS("cluster.create"))
	m.set(perLayerDefs, "cluster.close_ms", perOpMS("cluster.close"))
	m.set(perLayerDefs, "cluster.ingest_us_per_kevent", perKEvent("cluster.ingest"))
	m.set(perLayerDefs, "cluster.pump_ms_per_chunk", perOpMS("cluster.pump"))
	for l := 0; l < 4; l++ {
		m.set(perLayerDefs, fmt.Sprintf("pipeline.run_ms.L%d", l), perOpMS(fmt.Sprintf("pipeline.run.L%d", l)))
	}
	if l3 := s.get("pipeline.run.L3"); l3.count > 0 {
		// Per network and repetition, L3 is L2 plus the NMP search.
		m.set(perLayerDefs, "nmp.search_ms", (l3.total-s.get("pipeline.run.L2").total)*1e3/float64(l3.count))
	}
	m.set(perLayerDefs, "go.alloc_bytes_per_event", float64(u.allocBytes)/float64(u.events))
	m.set(perLayerDefs, "go.gc_cpu_frac", u.gcCPU/u.totalCPU)

	// Closure 1: summed layer self times per traced event against the
	// untraced wall time per event.
	uWallPerEvent := u.wallS / float64(u.events)
	self := s.layerSelf()
	share := map[string]float64{}
	var sum float64
	for layer, v := range self {
		share[layer] = v / float64(t.events) / uWallPerEvent
		sum += v
	}
	hostRatio := sum / float64(t.events) / uWallPerEvent
	m.set(perLayerDefs, "closure.host_self_gap", math.Abs(hostRatio-1))
	closure := map[string]any{
		"host_self_ratio":       hostRatio,
		"host_self_share":       share,
		"untraced_wall_s":       u.wallS,
		"traced_layer_self_s":   sum,
		"untraced_events":       u.events,
		"traced_events":         t.events,
		"untraced_events_per_s": float64(u.events) / u.wallS,
		"traced_events_per_s":   float64(t.events) / t.wallS,
	}
	findings := []string{}
	if math.Abs(hostRatio-1) > closureTolerance {
		findings = append(findings, fmt.Sprintf("layer self times sum to %.3f of the untraced wall time per event", hostRatio))
	}

	// Closure 2: the virtual stage medians along the blocking path
	// (queue, DSFA residency, batch wait, execution, transfers) against
	// the median session latency.
	frame := m["vstage.frame.p50_ms"].Value
	if frame > 0 {
		var path float64
		for _, st := range []string{"queue", "agg", "batch", "exec", "comms"} {
			path += m["vstage."+st+".p50_ms"].Value
		}
		vlat := u.virtual["vlat_ms_p50"]
		m.set(perLayerDefs, "closure.vstage_gap", math.Abs(path/vlat-1))
		closure["vstage_blocking_p50_sum_ms"] = path
		closure["vstage_frame_p50_ms"] = frame
		closure["vlat_ms_p50"] = vlat
		closure["vstage_ratio"] = path / vlat
		if math.Abs(path/vlat-1) > closureTolerance {
			findings = append(findings, fmt.Sprintf("blocking-path stage medians sum to %.3f of vlat_ms_p50 (frame stage median %.3f ms vs %.3f ms)", path/vlat, frame, vlat))
		}
	}

	// Closure 3: what tracing cost the traced run.
	uRate, tRate := float64(u.events)/u.wallS, float64(t.events)/t.wallS
	m.set(perLayerDefs, "closure.trace_overhead_frac", (uRate-tRate)/uRate)
	closure["trace_overhead_events_per_s"] = tRate - uRate
	closure["findings"] = findings
	return m, closure
}
