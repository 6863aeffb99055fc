package main

import (
	"bytes"
	"fmt"
	"time"

	"evedge/internal/cluster"
	"evedge/internal/obs"
	"evedge/internal/serve"
)

// Churn shape: each iteration creates a session, streams churnChunks
// chunks (250 ms) into it with a fleet Pump after each, and closes the
// oldest session once more than churnActive are open.
const (
	churnChunks = 10
	churnActive = 6
	churnIters  = 24
)

// churnInputs are pre-encoded 250 ms windows per mix network, each
// re-stamped to start at 0 (every session starts its own stream).
type churnInputs struct {
	windows [][][]chunkBody // [network][slot][chunk]
	iters   int
}

func prepareChurn(o options) (any, float64, error) {
	slots, iters := 4, churnIters
	if o.tiny {
		slots, iters = 1, 8
	}
	durUS := int64(slots * churnChunks * chunkUS)
	streams, err := netStreams(mix, o.seed, durUS)
	if err != nil {
		return nil, 0, err
	}
	in := &churnInputs{iters: iters}
	for _, s := range streams {
		var net [][]chunkBody
		for slot := 0; slot < slots; slot++ {
			win := make([]chunkBody, churnChunks)
			for c := range win {
				t0 := int64(slot*churnChunks+c) * chunkUS
				if win[c], err = encodeWindow(s, t0, int64(c)*chunkUS); err != nil {
					return nil, 0, err
				}
			}
			net = append(net, win)
		}
		in.windows = append(in.windows, net)
	}
	return in, float64(durUS*int64(len(streams))) / 1e6, nil
}

// fleet is the churn workload's view of the cluster: HTTP through the
// router's handler when untraced, the Cluster methods when traced.
type fleet struct {
	cl *cluster.Cluster
	c  client
	p  *pass
}

func (f *fleet) create(net string, parent int32) (string, error) {
	cfg := serve.SessionConfig{Network: net, Level: 3}
	if f.p.tr == nil {
		var snap serve.SessionSnapshot
		_, err := f.c.do("POST", "/v1/sessions", "application/json",
			[]byte(fmt.Sprintf(`{"network":%q,"level":%d}`, cfg.Network, cfg.Level)), &snap)
		return snap.ID, err
	}
	sp := f.p.tr.begin("cluster.create", parent, "")
	snap, err := f.cl.CreateSession(cfg)
	f.p.tr.end(sp)
	return snap.ID, err
}

func (f *fleet) ingest(id string, chunk int, b chunkBody, parent int32) (serve.IngestResult, error) {
	var res serve.IngestResult
	if f.p.tr == nil {
		_, err := f.c.do("POST", "/v1/sessions/"+id+"/events", evarType, b.body, &res)
		return res, err
	}
	req := fmt.Sprintf("%s#%d", id, chunk)
	sp := f.p.tr.begin("events.decode", parent, req)
	s, err := serve.DecodeChunk(evarType, bytes.NewReader(b.body))
	f.p.tr.endN(sp, int64(b.events))
	if err != nil {
		return res, err
	}
	sp = f.p.tr.begin("cluster.ingest", parent, req)
	res, err = f.cl.Ingest(id, s)
	f.p.tr.endN(sp, int64(b.events))
	return res, err
}

func (f *fleet) pump(parent int32) {
	sp := f.p.tr.begin("cluster.pump", parent, "")
	f.cl.Pump()
	f.p.tr.end(sp)
}

func (f *fleet) close(id string, parent int32) (serve.SessionSnapshot, error) {
	var snap serve.SessionSnapshot
	if f.p.tr == nil {
		_, err := f.c.do("POST", "/v1/sessions/"+id+"/close", "", nil, &snap)
		return snap, err
	}
	sp := f.p.tr.begin("cluster.close", parent, id)
	snap, err := f.cl.CloseSession(id)
	f.p.tr.end(sp)
	return snap, err
}

// repChurn runs one repetition: a fresh xavier+orin fleet (journal on,
// NMP mapper, probe loop off, manual drain) with churnActive idle
// sessions (set-up), then churnIters create/stream/close iterations and
// the closing of every remaining session (timed phase).
func repChurn(x any, p *pass) error {
	in := x.(*churnInputs)
	node := serve.Config{ManualDrain: true, Journal: true, Mapper: serve.MapperNMP}
	if p.tr != nil {
		node.Trace = obs.Config{Enabled: true}
	}
	f := &fleet{p: p}
	var active []string
	err := p.setup(func() error {
		root := p.tr.begin(rootSetup, -1, "")
		defer p.tr.end(root)
		var err error
		f.cl, err = cluster.New(cluster.Config{
			Nodes:         []cluster.NodeSpec{{Platform: "xavier"}, {Platform: "orin"}},
			ProbeInterval: -1,
			Node:          node,
		})
		if err != nil {
			return err
		}
		f.c.h = f.cl.Handler()
		for i := 0; i < churnActive; i++ {
			id, err := f.create(mix[i%len(mix)], root)
			p.check(err == nil, "create: %v", err)
			if err != nil {
				return err
			}
			active = append(active, id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer f.cl.Close()

	var snaps []serve.SessionSnapshot
	closeOne := func(id string, parent int32) {
		snap, err := f.close(id, parent)
		p.check(err == nil, "close %s: %v", id, err)
		if err == nil {
			checkClosed(p, snap)
			snaps = append(snaps, snap)
		}
	}
	p.begin()
	root := p.tr.begin(rootTimed, -1, "")
	for it := 0; it < in.iters; it++ {
		iter := p.tr.begin("bench.iter", root, "")
		net := it % len(mix)
		win := in.windows[net][(it/len(mix))%len(in.windows[net])]
		t := time.Now()
		id, err := f.create(mix[net], iter)
		p.createMS = append(p.createMS, float64(time.Since(t).Nanoseconds())/1e6)
		p.check(err == nil, "create %s: %v", mix[net], err)
		if err != nil {
			p.tr.end(iter)
			continue
		}
		for c, b := range win {
			t := time.Now()
			res, err := f.ingest(id, c, b, iter)
			f.pump(iter)
			p.chunkMS = append(p.chunkMS, float64(time.Since(t).Nanoseconds())/1e6)
			checkAck(p, id, c, res, err, b.events)
			p.events += int64(b.events)
		}
		active = append(active, id)
		if len(active) > churnActive {
			closeOne(active[0], iter)
			active = active[1:]
		}
		p.tr.end(iter)
		p.observeHeap()
	}
	for _, id := range active {
		closeOne(id, root)
	}
	p.tr.end(root)
	p.end()

	virt := map[string]float64{}
	_, err = f.c.do("GET", "/metrics", "", nil, nil)
	if err == nil {
		var m prom
		if m, err = parseProm(f.c.text()); err == nil {
			err = foldScrape(m, virt, p.layer)
		}
	}
	p.check(err == nil, "scrape: %v", err)
	foldSessions(snaps, virt, p.layer)
	foldSched(f.cl.SchedTotals(), f.cl.FleetTotals().RawFramesDone, p.layer)
	foldStages(f.cl.StageHists(), p.layer)
	p.foldVirtual(virt)
	return nil
}
