package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), layerMetrics()...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q: want a letter or digit, then at most 63 of letters, digits, _ . -", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, l := range cpuLayers {
		if !seen["cpu.share."+l.name] {
			t.Errorf("CPU layer %s has no per-layer metric", l.name)
		}
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q outside the name charset", name)
		}
	}
}

// BENCHMARK.json at the checkout's root names exactly the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, layerMetrics())
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--out", t.TempDir()},
		{"--workload", "http-mix", "--seconds", "0", "--out", t.TempDir()},
		{"--workload", "http-mix", "--trace", "2", "--out", t.TempDir()},
		{"--workload", "http-mix"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
