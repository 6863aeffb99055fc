package main

import (
	"fmt"
	"time"

	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
)

// offlineInputs are one half-scale stream per zoo network (networks
// sharing a scene preset share the stream).
type offlineInputs struct {
	names   []string
	streams []*events.Stream
	durUS   int64
	seed    int64
}

func prepareOffline(o options) (any, float64, error) {
	durUS := int64(1_000_000)
	if o.tiny {
		durUS = 200_000
	}
	in := &offlineInputs{names: nn.AllNames(), durUS: durUS, seed: o.seed}
	slot := map[scene.Preset]int{}
	var jobs []synthJob
	idx := make([]int, len(in.names))
	for i, name := range in.names {
		net, err := nn.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		j, ok := slot[net.Input.Preset]
		if !ok {
			j = len(jobs)
			slot[net.Input.Preset] = j
			jobs = append(jobs, synthJob{net.Input.Preset, streamSeed(o.seed, j), durUS})
		}
		idx[i] = j
	}
	streams, err := synthesise(jobs)
	if err != nil {
		return nil, 0, err
	}
	for _, j := range idx {
		in.streams = append(in.streams, streams[j])
	}
	return in, float64(durUS*int64(len(jobs))) / 1e6, nil
}

// repOffline runs one repetition: building the zoo networks and the
// Xavier platform (set-up), then pipeline.Run for every network at
// every level (timed phase). The traced pass adds one direct
// ConvertStream call per network, outside the timed phase.
func repOffline(x any, p *pass) error {
	in := x.(*offlineInputs)
	var nets []*nn.Network
	var plat *hw.Platform
	err := p.setup(func() error {
		root := p.tr.begin(rootSetup, -1, "")
		defer p.tr.end(root)
		for _, name := range in.names {
			net, err := nn.ByName(name)
			if err != nil {
				return err
			}
			nets = append(nets, net)
		}
		plat = hw.Xavier()
		return nil
	})
	if err != nil {
		return err
	}

	levels := []pipeline.Level{pipeline.LevelBaseline, pipeline.LevelE2SF, pipeline.LevelDSFA, pipeline.LevelNMP}
	reps := make([][]*pipeline.Report, len(nets))
	p.begin()
	root := p.tr.begin(rootTimed, -1, "")
	for i, net := range nets {
		for _, lvl := range levels {
			sp := p.tr.begin(fmt.Sprintf("pipeline.run.L%d", lvl), root, net.Name)
			t := time.Now()
			rep, err := pipeline.Run(pipeline.Config{
				Net: net, Platform: plat, Level: lvl, Scale: scene.Half,
				DurUS: in.durUS, Seed: in.seed, Stream: in.streams[i],
			})
			p.chunkMS = append(p.chunkMS, float64(time.Since(t).Nanoseconds())/1e6)
			p.tr.endN(sp, int64(in.streams[i].Len()))
			p.check(err == nil, "run %s %s: %v", net.Name, lvl, err)
			if err != nil {
				return err
			}
			reps[i] = append(reps[i], rep)
			p.events += int64(in.streams[i].Len())
			p.observeHeap()
		}
	}
	p.tr.end(root)
	p.end()

	if p.tr != nil {
		probe := p.tr.begin(rootProbe, -1, "")
		for i, net := range nets {
			sp := p.tr.begin("e2sf.convert", probe, net.Name)
			_, _, err := pipeline.ConvertStream(net, in.streams[i], in.durUS)
			p.tr.endN(sp, int64(in.streams[i].Len()))
			p.check(err == nil, "convert %s: %v", net.Name, err)
		}
		p.tr.end(probe)
	}
	foldReports(p, nets, in, reps)
	return nil
}

// foldReports checks the reports and derives the virtual results:
// frames over summed makespans, latency over the runs, shed, and the
// paper's Fig. 8 speedup (all-GPU over Ev-Edge mean latency, geomean
// over the networks).
func foldReports(p *pass, nets []*nn.Network, in *offlineInputs, reps [][]*pipeline.Report) {
	virt := map[string]float64{}
	var frames, once, dropped, units, invocs, events int
	var makespan, p99 float64
	var means, speedups []float64
	for i, net := range nets {
		base := reps[i][0]
		var nd, nf, nu, ni int
		for _, r := range reps[i] {
			p.check(r.RawFrames == base.RawFrames, "%s: %s produced %d raw frames, %s %d",
				net.Name, r.Level, r.RawFrames, base.Level, base.RawFrames)
			frames += r.RawFrames
			dropped += r.DroppedFrames
			units += r.BatchedUnits
			invocs += r.Invocations
			makespan += r.MakespanUS
			means = append(means, r.MeanLatencyUS)
			p99 = max(p99, r.P99LatencyUS)
			nd, nf, nu, ni = nd+r.DroppedFrames, nf+r.RawFrames, nu+r.BatchedUnits, ni+r.Invocations
		}
		once += base.RawFrames
		events += in.streams[i].Len()
		speedups = append(speedups, base.MeanLatencyUS/reps[i][len(reps[i])-1].MeanLatencyUS)
		p.layer["dsfa.drop_frac."+net.Name] = ratio(uint64(nd), uint64(nf))
		p.layer["dsfa.merge_ratio."+net.Name] = ratio(uint64(nu), uint64(ni))
	}
	virt["vframes_per_s"] = 1e6 * float64(frames) / makespan
	virt["vlat_ms_p50"] = median(means) / 1000
	virt["vlat_ms_p99"] = p99 / 1000
	virt["shed_frac"] = ratio(uint64(dropped), uint64(frames))
	virt["evedge_speedup"] = geomean(speedups)
	p.layer["dsfa.drop_frac"] = ratio(uint64(dropped), uint64(frames))
	p.layer["dsfa.merge_ratio"] = ratio(uint64(units), uint64(invocs))
	p.layer["e2sf.frames_per_kevent"] = 1000 * ratio(uint64(once), uint64(events))
	p.layer["pipeline.evedge_speedup"] = virt["evedge_speedup"]
	p.foldVirtual(virt)
}
