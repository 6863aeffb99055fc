package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks
// the program's output against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the result line parses, reports a correct run, and names
// exactly the metrics (with the units) BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for i, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			for _, d := range defs {
				want[d.Name] = d.Unit
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				o := options{workload: w.Name, seed: 3, seconds: 0.2, trace: trace, tiny: true}
				if code := execute(&workloads[i], o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line does not parse: %v", err)
				}
				if keys := sortedKeys(res); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %v", keys)
				}
				var out struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				var got []string
				for name, m := range out.Metrics {
					got = append(got, name)
					if unit, ok := want[name]; !ok || unit != m.Unit {
						t.Errorf("metric %s (%s) is not in BENCHMARK.json with that unit", name, m.Unit)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d: %v", len(got), len(want), got)
				}
			})
		}
	}
}
