package main

import (
	"bytes"
	"fmt"
	"time"

	"evedge/internal/hw"
	"evedge/internal/obs"
	"evedge/internal/serve"
)

// streamInputs are the stream workload's pre-encoded chunk bodies:
// 8 sessions, two per mix network, each with its own synthesised
// stream.
type streamInputs struct {
	nets   []string      // per session
	bodies [][]chunkBody // [session][round]
	rounds int
}

// scrapeEvery is the rounds between GET /metrics: 1 s of sensor time.
const scrapeEvery = 40

func prepareStream(o options) (any, float64, error) {
	durUS := int64(1_000_000)
	if o.tiny {
		durUS = 200_000
	}
	nets := append(append([]string(nil), mix...), mix...)
	streams, err := netStreams(nets, o.seed, durUS)
	if err != nil {
		return nil, 0, err
	}
	rounds := int(durUS / chunkUS)
	in := &streamInputs{nets: nets, rounds: rounds}
	for _, s := range streams {
		bodies := make([]chunkBody, rounds)
		for r := range bodies {
			if bodies[r], err = encodeWindow(s, int64(r)*chunkUS, int64(r)*chunkUS); err != nil {
				return nil, 0, err
			}
		}
		in.bodies = append(in.bodies, bodies)
	}
	return in, float64(durUS*int64(len(streams))) / 1e6, nil
}

// repStream runs one repetition: a fresh Xavier server with the 8
// sessions (set-up), then every round POSTs one chunk per session and
// pumps, scraping /metrics every scrapeEvery rounds, and finally closes
// the sessions (timed phase). The traced pass replaces each chunk's
// ServeHTTP with the two calls the ingest handler makes: DecodeChunk
// and Server.Ingest.
func repStream(x any, p *pass) error {
	in := x.(*streamInputs)
	cfg := serve.Config{Platform: hw.Xavier(), Mapper: serve.MapperRR, ManualDrain: true}
	if p.tr != nil {
		cfg.Trace = obs.Config{Enabled: true}
	}
	var srv *serve.Server
	var c client
	ids := make([]string, len(in.nets))
	err := p.setup(func() error {
		root := p.tr.begin(rootSetup, -1, "")
		defer p.tr.end(root)
		var err error
		if srv, err = serve.New(cfg); err != nil {
			return err
		}
		c.h = srv.Handler()
		for k, net := range in.nets {
			sp := p.tr.begin("serve.create", root, "")
			var snap serve.SessionSnapshot
			_, err := c.do("POST", "/v1/sessions", "application/json",
				[]byte(fmt.Sprintf(`{"network":%q,"level":2}`, net)), &snap)
			p.tr.end(sp)
			p.check(err == nil, "create %s: %v", net, err)
			if err != nil {
				return err
			}
			ids[k] = snap.ID
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	paths := make([]string, len(ids))
	for k, id := range ids {
		paths[k] = "/v1/sessions/" + id + "/events"
	}
	starts := make([]time.Time, len(ids))
	virt := map[string]float64{}
	p.begin()
	root := p.tr.begin(rootTimed, -1, "")
	for r := 0; r < in.rounds; r++ {
		round := p.tr.begin("bench.round", root, "")
		for k, id := range ids {
			b := in.bodies[k][r]
			starts[k] = time.Now()
			var res serve.IngestResult
			var err error
			if p.tr == nil {
				_, err = c.do("POST", paths[k], evarType, b.body, &res)
				p.handlerUS += float64(time.Since(starts[k]).Nanoseconds()) / 1e3
				p.handlerN++
			} else {
				req := fmt.Sprintf("%s#%d", id, r)
				sp := p.tr.begin("events.decode", round, req)
				chunk, derr := serve.DecodeChunk(evarType, bytes.NewReader(b.body))
				p.tr.endN(sp, int64(b.events))
				err = derr
				if err == nil {
					sp = p.tr.begin("serve.ingest", round, req)
					res, err = srv.Ingest(id, chunk)
					p.tr.endN(sp, int64(b.events))
				}
			}
			checkAck(p, id, r, res, err, b.events)
			p.events += int64(b.events)
		}
		sp := p.tr.begin("serve.pump", round, "")
		srv.Pump()
		p.tr.end(sp)
		done := time.Now()
		for k := range ids {
			p.chunkMS = append(p.chunkMS, float64(done.Sub(starts[k]).Nanoseconds())/1e6)
		}
		if (r+1)%scrapeEvery == 0 || r == in.rounds-1 {
			sp := p.tr.begin("serve.scrape", round, "")
			_, err := c.do("GET", "/metrics", "", nil, nil)
			p.tr.end(sp)
			p.check(err == nil, "scrape: %v", err)
			if r == in.rounds-1 && err == nil {
				m, err := parseProm(c.text())
				if err == nil {
					err = foldScrape(m, virt, p.layer)
				}
				p.check(err == nil, "scrape: %v", err)
			}
		}
		p.tr.end(round)
		p.observeHeap()
	}
	snaps := make([]serve.SessionSnapshot, 0, len(ids))
	for _, id := range ids {
		sp := p.tr.begin("serve.close", root, id)
		var snap serve.SessionSnapshot
		_, err := c.do("POST", "/v1/sessions/"+id+"/close", "", nil, &snap)
		p.tr.end(sp)
		p.check(err == nil, "close %s: %v", id, err)
		if err == nil {
			checkClosed(p, snap)
			snaps = append(snaps, snap)
		}
	}
	p.tr.end(root)
	p.end()

	foldSessions(snaps, virt, p.layer)
	var rawDone uint64
	for _, s := range snaps {
		rawDone += s.RawFramesDone
	}
	foldSched(srv.SchedStats(), rawDone, p.layer)
	foldStages(srv.StageHists(), p.layer)
	p.foldVirtual(virt)
	return nil
}
