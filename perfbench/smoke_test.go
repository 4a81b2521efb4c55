package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit and
// that every correctness gate passes.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json names no workloads or metrics: %+v", bf)
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			name, want := wl.Name+"/end-to-end", bf.EndToEnd
			if traced {
				name, want = wl.Name+"/traced", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{Workload: wl.Name, Seed: defaultSeed, Seconds: 0.5, Trace: traced, Tiny: true, Out: t.TempDir()}
				res, rep, err := execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d gates=%+v", res.Correct, res.Attempted, res.Failed, rep.Gates)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCrossVerdict pins the oracle's ordering rule for a publication on one
// connection against subscription changes on the other.
func TestCrossVerdict(t *testing.T) {
	const cover = 1 << 3
	x := &edge{startState: cover, ctl: []ctlEvent{
		{write: 100, state: 0},     // unsubscribe, applied by 150 at the latest
		{write: 300, state: cover}, // subscribe again, applied by 400
	}}
	upper := []int64{150, 400}
	for _, c := range []struct {
		name          string
		lo, hi        int64
		must, mustNot bool
	}{
		{"before any change", 10, 90, true, false},
		{"racing the unsubscribe", 120, 200, false, false},
		{"between the changes", 200, 250, false, true},
		{"racing the resubscribe", 250, 350, false, false},
		{"after both changes", 500, 600, true, false},
	} {
		must, mustNot := crossVerdict(x, upper, c.lo, c.hi, cover)
		if must != c.must || mustNot != c.mustNot {
			t.Errorf("%s: must=%v mustNot=%v, want %v %v", c.name, must, mustNot, c.must, c.mustNot)
		}
	}
}
