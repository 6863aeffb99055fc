package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/scene"
)

// mix is evload's default network mix, cycled over sessions.
var mix = []string{nn.DOTIE, nn.HALSIE, nn.SpikeFlowNet, nn.HidalgoDepth}

// chunkUS is evload's chunk size. At 25 ms a DOTIE chunk carries 25
// frames into a cBatch queue capped at 6, so DSFA sheds most of them;
// the benchmark keeps that divergence visible instead of hiding it.
const chunkUS = 25_000

const evarType = "application/octet-stream"

// rateCap is each scene preset's event rate (events/s), set just below
// the lowest native rate 12 seeds gave at half scale. Streams are
// thinned uniformly down to it, as evload -rate does, so every seed
// offers the same event volume: the native rate swings with the random
// texture (outdoorday1 ranged 239k-435k events/s), which would
// otherwise dominate the run-to-run spread. Burst timing, spatial
// content and the time-framed networks' frame counts are unchanged.
var rateCap = map[scene.Preset]float64{
	scene.HighSpeedSpin: 95_000,
	scene.OutdoorDay1:   220_000,
	scene.IndoorFlying2: 21_000,
	scene.Town10:        42_000,
	scene.IndoorFlying1: 12_500,
}

// thin keeps evenly spaced events so the stream carries at most rate
// events per second over durUS.
func thin(s *events.Stream, rate float64, durUS int64) *events.Stream {
	keep := rate * float64(durUS) / 1e6
	if rate <= 0 || float64(s.Len()) <= keep {
		return s
	}
	step := float64(s.Len()) / keep
	out := &events.Stream{Width: s.Width, Height: s.Height, Events: make([]events.Event, 0, int(keep)+1)}
	for next := 0.0; int(next) < s.Len(); next += step {
		out.Events = append(out.Events, s.Events[int(next)])
	}
	return out
}

// synthJob is one stream to synthesise.
type synthJob struct {
	preset scene.Preset
	seed   int64
	durUS  int64
}

// synthesise generates the rate-capped streams on two workers (inputs
// are made before any timing starts, so the load shape is unaffected).
func synthesise(jobs []synthJob) ([]*events.Stream, error) {
	out := make([]*events.Stream, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				seq, err := scene.NewSequence(jobs[i].preset, scene.Half, jobs[i].seed)
				if err == nil {
					out[i], err = seq.Generate(jobs[i].durUS)
				}
				if err == nil {
					out[i] = thin(out[i], rateCap[jobs[i].preset], jobs[i].durUS)
				}
				errs[i] = err
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("synthesising %s: %w", jobs[i].preset, err)
		}
	}
	return out, nil
}

// streamSeed derives the i-th input stream's seed from the run seed,
// so runs with neighbouring seeds share no stream.
func streamSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// netStreams synthesises one stream per listed network, each from its
// network's scene preset with its own seed.
func netStreams(nets []string, seed, durUS int64) ([]*events.Stream, error) {
	jobs := make([]synthJob, len(nets))
	for i, name := range nets {
		net, err := nn.ByName(name)
		if err != nil {
			return nil, err
		}
		jobs[i] = synthJob{net.Input.Preset, streamSeed(seed, i), durUS}
	}
	return synthesise(jobs)
}

// chunkBody is one pre-encoded EVAR ingest body.
type chunkBody struct {
	body   []byte
	events int
}

// encodeWindow encodes the events of [t0, t0+chunkUS) re-stamped to
// start at base, so a window can be replayed at any stream position.
func encodeWindow(s *events.Stream, t0, base int64) (chunkBody, error) {
	win := s.Window(t0, t0+chunkUS)
	c := &events.Stream{Width: s.Width, Height: s.Height, Events: make([]events.Event, len(win))}
	for i, e := range win {
		e.TS = e.TS - t0 + base
		c.Events[i] = e
	}
	var buf bytes.Buffer
	if err := events.WriteBinary(&buf, c); err != nil {
		return chunkBody{}, err
	}
	return chunkBody{buf.Bytes(), len(win)}, nil
}

// client calls an http.Handler in process: no sockets, no goroutines.
type client struct {
	h   http.Handler
	rec recorder
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// do serves one request and returns the status; out, when non-nil,
// receives the decoded JSON body of a 2xx response.
func (c *client) do(method, path, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.rec.hdr == nil {
		c.rec.hdr = http.Header{}
	}
	clear(c.rec.hdr)
	c.rec.status = 0
	c.rec.body.Reset()
	c.h.ServeHTTP(&c.rec, req)
	if c.rec.status < 200 || c.rec.status > 299 {
		return c.rec.status, fmt.Errorf("%s %s: HTTP %d: %s", method, path, c.rec.status, bytes.TrimSpace(c.rec.body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(c.rec.body.Bytes(), out); err != nil {
			return c.rec.status, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return c.rec.status, nil
}

// text returns the last response body (GET /metrics).
func (c *client) text() string { return c.rec.body.String() }
