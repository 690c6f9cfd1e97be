package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the verdicts pass and that exactly the metrics
// BENCHMARK.json names are emitted, each with its declared unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 7, seconds: 0.5, trace: traced,
				tiny: true, outDir: t.TempDir()}
			res, prov, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d verdicts=%q",
					wl.Name, traced, res.Correct, res.Attempted, prov.Verdicts)
			}
			for name, unit := range want[traced] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, traced, name)
				}
			}
			if traced && prov.SpanFile == "" {
				t.Errorf("%s: traced run wrote no span file", wl.Name)
			}
		}
	}
}
