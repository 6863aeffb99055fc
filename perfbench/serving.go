package main

import (
	"fmt"

	"evedge/internal/obs"
	"evedge/internal/sched"
	"evedge/internal/serve"
)

// devices are the processing elements of both modeled Jetsons.
var devices = []string{"CPU", "GPU", "DLA0", "DLA1"}

// vstages are the frame-lifecycle stages the servers' tracer
// histograms; frame is the end-to-end span, the rest its parts.
var vstages = []string{"queue", "agg", "batch", "exec", "comms", "frame"}

// checkClosed verifies a closed session's final snapshot: every frame
// E2SF produced was either completed or shed.
func checkClosed(p *pass, s serve.SessionSnapshot) {
	p.check(s.FramesIn == s.RawFramesDone+s.FramesDropped+s.FramesDroppedDSFA,
		"session %s (%s): frames_in %d != done %d + dropped %d + dsfa dropped %d",
		s.ID, s.Network, s.FramesIn, s.RawFramesDone, s.FramesDropped, s.FramesDroppedDSFA)
}

// checkAck verifies an ingest acknowledgement against the chunk sent.
func checkAck(p *pass, id string, chunk int, res serve.IngestResult, err error, want int) {
	if err != nil {
		p.check(false, "ingest %s#%d: %v", id, chunk, err)
		return
	}
	p.check(res.Events == want, "ingest %s#%d: ack events %d, chunk held %d", id, chunk, res.Events, want)
}

// foldSessions derives the virtual latency and shed results and the
// DSFA, E2SF and NMP counters from the final snapshots of a
// repetition's sessions. Sessions that completed no frame carry no
// latency and are left out of the latency statistics.
func foldSessions(snaps []serve.SessionSnapshot, virt, layer map[string]float64) {
	type sums struct{ framesIn, dsfaDrop, rawDone, invocs uint64 }
	perNet := map[string]*sums{}
	var tot sums
	var events, dropped, remaps uint64
	var p50s []float64
	var p99 float64
	for _, s := range snaps {
		n := perNet[s.Network]
		if n == nil {
			n = &sums{}
			perNet[s.Network] = n
		}
		for _, t := range []*sums{n, &tot} {
			t.framesIn += s.FramesIn
			t.dsfaDrop += s.FramesDroppedDSFA
			t.rawDone += s.RawFramesDone
			t.invocs += s.Invocations
		}
		events += s.EventsIn
		dropped += s.FramesDropped
		remaps += s.Remaps
		if s.Latency.Count > 0 {
			p50s = append(p50s, s.Latency.P50US)
			p99 = max(p99, s.Latency.P99US)
		}
	}
	virt["vlat_ms_p50"] = median(p50s) / 1000
	virt["vlat_ms_p99"] = p99 / 1000
	virt["shed_frac"] = ratio(dropped+tot.dsfaDrop, tot.framesIn)
	layer["serve.queue_drop_frac"] = ratio(dropped, tot.framesIn)
	layer["e2sf.frames_per_kevent"] = 1000 * ratio(tot.framesIn, events)
	layer["nmp.remaps_per_session"] = ratio(remaps, uint64(len(snaps)))
	layer["dsfa.drop_frac"] = ratio(tot.dsfaDrop, tot.framesIn)
	layer["dsfa.merge_ratio"] = ratio(tot.rawDone, tot.invocs)
	for _, net := range mix {
		if n := perNet[net]; n != nil {
			layer["dsfa.drop_frac."+net] = ratio(n.dsfaDrop, n.framesIn)
			layer["dsfa.merge_ratio."+net] = ratio(n.rawDone, n.invocs)
		}
	}
}

// foldScrape derives virtual throughput and per-device utilization
// from a /metrics scrape (one server, or a fleet of node-labelled
// servers): raw frames completed over the longest engine makespan,
// and each device's busy time over its node's makespan, averaged over
// nodes.
func foldScrape(m prom, virt, layer map[string]float64) error {
	makespan := m.max("evserve_engine_makespan_us")
	if makespan <= 0 {
		return fmt.Errorf("metrics scrape reports no engine makespan")
	}
	virt["vframes_per_s"] = 1e6 * m.sum("evserve_raw_frames_done_total") / makespan
	span := map[string]float64{}
	for _, s := range m["evserve_engine_makespan_us"] {
		span[s.labels["node"]] = s.value
	}
	for _, dev := range devices {
		var util float64
		for node, ms := range span {
			util += m.sum("evserve_device_busy_us", "device", dev, "node", node) / ms
		}
		layer["hw.util."+dev] = util / float64(len(span))
	}
	return nil
}

// foldSched derives the scheduler's batching counters.
func foldSched(st sched.Stats, rawDone uint64, layer map[string]float64) {
	layer["sched.occupancy"] = st.Occupancy()
	layer["sched.dispatches_per_kframe"] = 1000 * ratio(st.Dispatches, rawDone)
}

// foldStages reads the servers' virtual-time stage histograms (traced
// pass only; nil when tracing is off).
func foldStages(hists []obs.HistSnapshot, layer map[string]float64) {
	for _, h := range hists {
		for _, st := range vstages {
			if h.Stage == st {
				layer["vstage."+st+".p50_ms"] = h.Quantile(0.50) / 1000
				layer["vstage."+st+".p99_ms"] = h.Quantile(0.99) / 1000
			}
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
