package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// smallSizes keeps the self-test's set-up to well under a second.
var smallSizes = sizes{
	owners:         20,
	users:          100,
	apps:           2,
	resources:      16,
	tokensPerOwner: 8,
	friends:        6,
	family:         3,
	blocked:        1,
	cache:          512,
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFile keeps BENCHMARK.json in step with the workloads and
// metrics this program measures: each workload's reason names its fixed
// rate and latency limit.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, got.Name, w.name)
		}
		for _, want := range []string{fmt.Sprintf("%g Checks/s", w.rate), "limit " + w.limit.String()} {
			if !strings.Contains(got.Why, want) {
				t.Errorf("workload %s: why %q does not state %q", w.name, got.Why, want)
			}
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, on a
// small population: every named metric prints with its unit, nothing
// fails, and every AM handler span has a transport-span parent carrying
// the same request ID.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := bench(config{wl: w, seed: 7, seconds: 1, trace: traced,
					workdir: t.TempDir(), sizes: smallSizes})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.failLog)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, got, d.unit)
					}
				}
				if !traced {
					return
				}
				if fr := res.Metrics["gen.fail_ratio"].Value; fr != 0 {
					t.Errorf("gen.fail_ratio = %v", fr)
				}
				a := res.spans
				if a.amSpans == 0 || a.amLinked != a.amSpans || a.idMismatch != 0 {
					t.Errorf("%d am spans, %d linked to their transport span, %d request-ID mismatches",
						a.amSpans, a.amLinked, a.idMismatch)
				}
				if len(a.missSelf) == 0 {
					t.Error("no PEP miss was linked to its transport span")
				}
			})
		}
	}
}
