package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smallSizes keep the smoke runs to seconds; benchmark runs use
// defaultSizes.
var smallSizes = sizes{side: 128, radius: 8, shards: 4, requests: 256, setupReps: 2, clients: 2, batch: 4}

// TestSmokeEveryWorkload runs every workload untraced and traced on small
// inputs and checks that each reports its full metric set with no failed
// operation.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about half a minute")
	}
	for _, wl := range []string{"daemon-mixed", "cluster-scan", "ingest"} {
		for _, trace := range []bool{false, true} {
			rep, err := run(options{workload: wl, seed: 7, seconds: 0.3, trace: trace, workDir: t.TempDir(), size: smallSizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; notes: %v", wl, trace, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			want := endToEnd
			if trace {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v := res.Metrics[d.name].Value; !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, v)
				}
			}
			if trace && (wl == "cluster-scan") {
				for _, c := range []string{"server.shed", "server.expired", "router.hedges", "router.retries", "router.partials", "router.ejections"} {
					if v := res.Metrics[c].Value; v != 0 {
						t.Errorf("cluster-scan: %s = %v on a healthy run, want 0", c, v)
					}
				}
				if v := res.Metrics["router.attempts_per_part"].Value; v != 1 {
					t.Errorf("cluster-scan: router.attempts_per_part = %v, want 1", v)
				}
			}
		}
	}
}

// TestBenchmarkJSONListsDeclaredMetrics keeps BENCHMARK.json in step with
// the metrics the program declares.
func TestBenchmarkJSONListsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		listed := map[string]string{}
		for _, g := range got {
			listed[g.Name] = g.Unit + " " + g.Better
		}
		if len(listed) != len(got) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics (%d distinct), the program declares %d", kind, len(got), len(listed), len(want))
		}
		for _, d := range want {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if g, w := listed[d.name], d.unit+" "+better; g != w {
				t.Errorf("%s: BENCHMARK.json lists %s as %q, the program declares %q", kind, d.name, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
