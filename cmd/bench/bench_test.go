package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: the parent
// re-executes os.Executable() with -child as the first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := mainErr(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString("bench: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// descriptor is the part of BENCHMARK.json the tests compare against.
type descriptor struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDescriptor(t *testing.T) descriptor {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d descriptor
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCatalogueMatchesDescriptor(t *testing.T) {
	d := loadDescriptor(t)
	want := map[string]string{}
	for _, m := range d.EndToEnd {
		want[m.Name] = m.Unit
		if b, ok := bounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("bound of %s: descriptor %v, bench %v", m.Name, m.Bound, b)
		}
	}
	compareUnits(t, "end_to_end", want, endToEnd)
	want = map[string]string{}
	for _, m := range d.PerLayer {
		want[m.Name] = m.Unit
	}
	compareUnits(t, "per_layer", want, perLayer)
	if len(d.Workloads) != len(allWorkloads) {
		t.Fatalf("descriptor lists %d workloads, bench has %d", len(d.Workloads), len(allWorkloads))
	}
	for i, w := range d.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: descriptor %q, bench %q", i, w.Name, allWorkloads[i].name)
		}
	}
}

func compareUnits(t *testing.T, list string, want map[string]string, got []metricSpec) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: descriptor has %d metrics, bench %d", list, len(want), len(got))
	}
	for _, m := range got {
		if u, ok := want[m.Name]; !ok || u != m.Unit {
			t.Errorf("%s: %s [%s] not in the descriptor with that unit (descriptor: %q)", list, m.Name, m.Unit, u)
		}
	}
}

// runBench runs the command in-process and returns its records and the
// final line.
func runBench(t *testing.T, args ...string) ([]record, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	if err := mainErr(args, &out); err != nil {
		t.Errorf("bench %v: %v\n%s", args, err, out.String())
	}
	var recs []record
	var last map[string]any
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("output line is not JSON: %s", line)
		}
		if probe["record"] == "bench" {
			var r record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		last = probe
	}
	return recs, last
}

// TestQuickWorkloads runs every workload at -quick sizes through the
// parent, child re-execution included, and checks the contract: every
// end-to-end metric with its descriptor unit, every self-check passing,
// and the serving generator reporting the latency of every request.
func TestQuickWorkloads(t *testing.T) {
	d := loadDescriptor(t)
	recs, last := runBench(t, "-quick", "-seconds", "2", "-workdir", t.TempDir(), "-commit", "test")
	if len(recs) != len(allWorkloads) {
		t.Fatalf("%d records, want %d", len(recs), len(allWorkloads))
	}
	for _, r := range recs {
		if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: attempted %d failed %d: %v", r.Workload, r.Attempted, r.Failed, r.Errors)
		}
		if len(r.Metrics) != len(d.EndToEnd) {
			t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(d.EndToEnd))
		}
		for _, m := range d.EndToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %+v, want a finite nonzero value in %s", r.Workload, m.Name, v, m.Unit)
			}
		}
		if r.Commit != "test" || r.Nproc < 1 || r.GoVersion == "" || r.Params == nil {
			t.Errorf("%s: provenance missing: %+v", r.Workload, r)
		}
		if r.Workload == "serve-cold" || r.Workload == "serve-hot" {
			if lat, ok := r.Stats["latency_ms"]; !ok || lat.N == 0 || math.IsNaN(lat.Median) {
				t.Errorf("%s: request latencies not reported: %+v", r.Workload, r.Stats)
			}
		}
	}
	if last["correct"] != true || last["failed"].(float64) != 0 {
		t.Errorf("final line: %v", last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("final line lacks %q: %v", k, last)
		}
	}
	if len(last) != 4 {
		t.Errorf("final line has keys beyond the four: %v", last)
	}
}

// TestQuickTraced runs one training and one serving workload traced: every
// per-layer metric is reported, the traced search matched the untraced one
// (a self-check), and the span file is a Chrome trace.
func TestQuickTraced(t *testing.T) {
	d := loadDescriptor(t)
	dir := t.TempDir()
	for _, w := range []string{"train-ooc", "serve-hot"} {
		out := filepath.Join(dir, w+".json")
		recs, _ := runBench(t, "-quick", "-seconds", "2", "-trace", "1", "-workload", w,
			"-workdir", dir, "-trace-out", out)
		if len(recs) != 1 {
			t.Fatalf("%s: %d records", w, len(recs))
		}
		r := recs[0]
		if r.Failed != 0 {
			t.Errorf("%s: %v", w, r.Errors)
		}
		for _, m := range d.PerLayer {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s: per-layer %s = %+v", w, m.Name, v)
			}
		}
		// Probed values are labelled; the workload's own are not.
		probed := map[string]bool{}
		for _, name := range r.Probed {
			probed[name] = true
		}
		own, byProbe := "autoclass.cycles", "dataset.chunk_write_s"
		if w == "train-ooc" {
			own, byProbe = "dataset.cache_loads", "serve.handler_p50_ms"
		}
		if probed[own] || !probed[byProbe] {
			t.Errorf("%s: probed list %v: want %s unlisted and %s listed", w, r.Probed, own, byProbe)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: span file: %v, %d events", w, err, len(tr.TraceEvents))
		}
	}
}

func TestFlagsAcceptDoubleDashForm(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "train-ooc", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.workloads) != 1 || o.workloads[0] != "train-ooc" || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	o, err = parseFlags([]string{"-workload", "serve-hot,train-ooc"})
	if err != nil || len(o.workloads) != 2 || o.workloads[1] != "train-ooc" {
		t.Errorf("comma list: %v %+v", err, o)
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(values, n=4), the method the spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles(sample{10, 2, 3, 4, 5, 6, 7, 8, 9, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time %v, want 60", got)
	}
}
