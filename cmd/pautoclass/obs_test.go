package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIObservabilityOutputs drives the full observability surface: a
// 4-rank Meiko run with -trace-out, -events-out, -metrics-out and
// -phase-profile must print the phase table and breakdown and leave valid
// artifacts on disk.
func TestCLIObservabilityOutputs(t *testing.T) {
	path := writeDataset(t, 800)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")
	var buf bytes.Buffer
	err := run([]string{
		"-data", path, "-procs", "4", "-start-j", "4", "-tries", "1",
		"-max-cycles", "10", "-machine", "meiko",
		"-trace-out", tracePath, "-events-out", eventsPath,
		"-metrics-out", metricsPath, "-phase-profile",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"update_wts", "update_parameters", "update_approximations", "initialization",
		"Comm/compute breakdown", "comm%",
		"chrome trace written to", "trace events written to", "metrics written to",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			tids[ev.Tid] = true
		}
	}
	if len(tids) != 4 {
		t.Fatalf("trace has %d tracks, want 4", len(tids))
	}

	events, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(events), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("events file is empty")
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("events line %d is not valid JSON: %s", i, line)
		}
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Ranks     int `json:"ranks"`
		Breakdown *struct {
			CommSeconds float64 `json:"comm_seconds"`
		} `json:"breakdown"`
	}
	if err := json.Unmarshal(metrics, &m); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	if m.Ranks != 4 || m.Breakdown == nil || m.Breakdown.CommSeconds <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestCLIPprofOutputs checks the -pprof flag writes both runtime profiles.
func TestCLIPprofOutputs(t *testing.T) {
	path := writeDataset(t, 300)
	prefix := filepath.Join(t.TempDir(), "prof")
	var buf bytes.Buffer
	err := run([]string{
		"-data", path, "-start-j", "2", "-tries", "1", "-max-cycles", "5",
		"-pprof", prefix,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// The heap profile is written by run's deferred handler, so both files
	// must exist once run returns.
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		if fi, err := os.Stat(prefix + suffix); err != nil || fi.Size() == 0 {
			t.Fatalf("missing or empty profile %s%s: %v", prefix, suffix, err)
		}
	}
}
