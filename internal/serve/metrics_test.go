package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"evedge/internal/nn"
	"evedge/internal/obs"
)

// TestPromLabelsEscaping: label values must escape backslash, quote
// and newline exactly per the Prometheus text exposition format —
// nothing more (Go's %q would mangle other non-printables into syntax
// Prometheus rejects).
func TestPromLabelsEscaping(t *testing.T) {
	cases := []struct {
		name  string
		kv    []string
		want  string
		avoid string
	}{
		{"plain", []string{"session", "s1"}, `session="s1"`, ""},
		{"quote", []string{"id", `a"b`}, `id="a\"b"`, ""},
		{"backslash", []string{"id", `a\b`}, `id="a\\b"`, ""},
		{"newline", []string{"id", "a\nb"}, `id="a\nb"`, "\n"},
		{"combined", []string{"id", "\\\"\n"}, `id="\\\"\n"`, "\n"},
		{"tab passes through", []string{"id", "a\tb"}, "id=\"a\tb\"", `\t`},
		{"multi pair", []string{"a", "1", "b", `2"`}, `a="1",b="2\""`, ""},
		{"odd pair dropped", []string{"a", "1", "dangling"}, `a="1"`, ""},
		{"empty", nil, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PromLabels(tc.kv...)
			if got != tc.want {
				t.Errorf("PromLabels(%q) = %q, want %q", tc.kv, got, tc.want)
			}
			if tc.avoid != "" && strings.Contains(got, tc.avoid) {
				t.Errorf("PromLabels(%q) = %q contains forbidden %q", tc.kv, got, tc.avoid)
			}
		})
	}
}

// TestPromLabelsCannotBreakExposition: a hostile value injecting a
// closing quote plus a fake sample must stay inside one label value.
func TestPromLabelsCannotBreakExposition(t *testing.T) {
	evil := "x\"} 1\nevil_metric{a=\""
	pw := NewPromWriter()
	pw.Gauge("m", "help.", PromLabels("session", evil), 1)
	out := pw.String()
	if strings.Contains(out, "\nevil_metric") {
		t.Fatalf("label injection broke the exposition:\n%s", out)
	}
	// Exactly one sample line beyond the two header lines.
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 2 {
		t.Fatalf("expected HELP+TYPE+1 sample, got:\n%s", out)
	}
}

// TestPromWriterHistogram checks the cumulative-bucket rendering.
func TestPromWriterHistogram(t *testing.T) {
	pw := NewPromWriter()
	bounds := []float64{100, 1000}
	counts := []uint64{2, 1, 1} // 2 <=100, 1 <=1000, 1 +Inf
	pw.Histogram("stage_us", "Stage latency.", `stage="queue"`, bounds, counts, 1234.5, 4)
	out := pw.String()
	for _, w := range []string{
		"# TYPE stage_us histogram",
		`stage_us_bucket{stage="queue",le="100"} 2`,
		`stage_us_bucket{stage="queue",le="1000"} 3`,
		`stage_us_bucket{stage="queue",le="+Inf"} 4`,
		`stage_us_sum{stage="queue"} 1234.5`,
		`stage_us_count{stage="queue"} 4`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("histogram output missing %q:\n%s", w, out)
		}
	}
	// A second labelled series must not repeat the HELP/TYPE header.
	pw.Histogram("stage_us", "Stage latency.", `stage="exec"`, bounds, counts, 1, 4)
	if strings.Count(pw.String(), "# TYPE stage_us") != 1 {
		t.Errorf("HELP/TYPE emitted more than once:\n%s", pw.String())
	}

	// Unlabelled histograms render bare sum/count names.
	pw2 := NewPromWriter()
	pw2.Histogram("h", "h.", "", bounds, counts, 2, 4)
	if !strings.Contains(pw2.String(), "\nh_sum 2\n") || !strings.Contains(pw2.String(), "\nh_count 4\n") {
		t.Errorf("unlabelled histogram malformed:\n%s", pw2.String())
	}
	if !strings.Contains(pw2.String(), `h_bucket{le="+Inf"} 4`) {
		t.Errorf("unlabelled +Inf bucket malformed:\n%s", pw2.String())
	}

	// The obs bucket bounds drive the real stage histograms: counts is
	// one longer than bounds by construction.
	if len(obs.BucketBoundsUS)+1 != len(obs.NewTracer(obs.Config{Enabled: true}).Hists()[0].Counts) {
		t.Fatal("obs bucket bounds and hist counts misaligned")
	}
}

// TestLatencyRecorderEmpty: quantiles of an empty recorder are zero,
// not a panic or NaN.
func TestLatencyRecorderEmpty(t *testing.T) {
	r := newLatencyRecorder()
	s := r.snapshot()
	if s.Count != 0 || s.MeanUS != 0 || s.P50US != 0 || s.P99US != 0 || s.MaxUS != 0 {
		t.Fatalf("empty recorder snapshot = %+v, want all zero", s)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile(nil) = %g, want 0", got)
	}
}

// TestLatencyRecorderExactWindow fills exactly latencyWindow samples:
// the window holds them all and quantiles read the full population.
func TestLatencyRecorderExactWindow(t *testing.T) {
	r := newLatencyRecorder()
	for i := 1; i <= latencyWindow; i++ {
		r.observe(float64(i))
	}
	s := r.snapshot()
	if s.Count != latencyWindow {
		t.Fatalf("count = %d, want %d", s.Count, latencyWindow)
	}
	if want := float64(latencyWindow+1) / 2; s.MeanUS != want {
		t.Fatalf("mean = %g, want %g", s.MeanUS, want)
	}
	if s.MaxUS != latencyWindow {
		t.Fatalf("max = %g, want %d", s.MaxUS, latencyWindow)
	}
	// quantile(sorted, q) indexes int(q*n): p50 of 1..4096 is the
	// 2048th index = 2049, p99 is index 4055 = 4056.
	n := float64(len(r.ring))
	if want := float64(int(0.5*n) + 1); s.P50US != want {
		t.Fatalf("p50 = %g, want %g", s.P50US, want)
	}
	if want := float64(int(0.99*n) + 1); s.P99US != want {
		t.Fatalf("p99 = %g, want %g", s.P99US, want)
	}
}

// TestLatencyRecorderWraparound pushes one sample past the window: the
// oldest falls out of the quantile window while lifetime count/sum/max
// keep counting.
func TestLatencyRecorderWraparound(t *testing.T) {
	r := newLatencyRecorder()
	for i := 1; i <= latencyWindow; i++ {
		r.observe(float64(i))
	}
	r.observe(float64(latencyWindow + 1)) // overwrites sample "1"
	s := r.snapshot()
	if s.Count != latencyWindow+1 {
		t.Fatalf("lifetime count = %d, want %d", s.Count, latencyWindow+1)
	}
	if s.MaxUS != latencyWindow+1 {
		t.Fatalf("max = %g, want %d", s.MaxUS, latencyWindow+1)
	}
	if len(r.ring) != latencyWindow {
		t.Fatalf("ring grew to %d, want %d", len(r.ring), latencyWindow)
	}
	// The window is now 2..4097: its minimum proves "1" was evicted.
	min := r.ring[0]
	for _, v := range r.ring {
		if v < min {
			min = v
		}
	}
	if min != 2 {
		t.Fatalf("window min = %g, want 2 (oldest sample must be evicted)", min)
	}
	// Quantiles shift with the window: p50 of 2..4097 is one above the
	// exact-window case.
	if want := float64(int(0.5*float64(len(r.ring))) + 2); s.P50US != want {
		t.Fatalf("p50 after wraparound = %g, want %g", s.P50US, want)
	}

	// Many windows later the lifetime stats still cover everything.
	for i := latencyWindow + 2; i <= 3*latencyWindow; i++ {
		r.observe(float64(i))
	}
	s = r.snapshot()
	if s.Count != 3*latencyWindow {
		t.Fatalf("lifetime count = %d, want %d", s.Count, 3*latencyWindow)
	}
	if want := float64(3*latencyWindow+1) / 2; s.MeanUS != want {
		t.Fatalf("lifetime mean = %g, want %g", s.MeanUS, want)
	}
}

func TestQuantileBounds(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := quantile(sorted, 1.0); got != 40 {
		t.Fatalf("q=1 clamps to last sample, got %g", got)
	}
	if got := quantile(sorted, 0); got != 10 {
		t.Fatalf("q=0 reads first sample, got %g", got)
	}
}

func ExamplePromLabels() {
	fmt.Println(PromLabels("session", "s1", "network", "DOTIE"))
	// Output: session="s1",network="DOTIE"
}

// TestSerialServerHasNoRulebook pins what serving does not do: it runs
// no numeric kernels, so it keeps no per-session rulebook, exposes no
// kernel or rulebook metric families and no active-set pool row, and
// final snapshots carry no rulebook section.
func TestSerialServerHasNoRulebook(t *testing.T) {
	srv, cl, stop := newTestServer(t, Config{Workers: 1})
	defer stop()

	snap, err := cl.CreateSession(SessionConfig{Network: nn.DOTIE, Level: 2})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	const dur = 100_000
	net := nn.MustByName(nn.DOTIE)
	stream := genStream(t, net.Input.Preset, 17, dur)
	for _, c := range chunks(stream, dur, 20_000) {
		if _, err := cl.SendEvents(snap.ID, c); err != nil {
			t.Fatalf("SendEvents: %v", err)
		}
	}
	fin, err := cl.CloseSession(snap.ID)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	raw, err := json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "rulebook") {
		t.Fatalf("final snapshot carries a rulebook section: %s", raw)
	}
	pw := NewPromWriter()
	srv.WriteMetrics(pw, "test", "")
	text := pw.String()
	for _, avoid := range []string{"test_kernel_", "test_rulebook_", `pool="active_sets"`} {
		if strings.Contains(text, avoid) {
			t.Errorf("metrics exposition still has %q", avoid)
		}
	}
	if !strings.Contains(text, `test_pool_gets_total{pool="frames"}`) {
		t.Error("metrics exposition lost the arena pool rows")
	}
}
