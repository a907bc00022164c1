package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quick sweeps are still multi-second runs, so each one runs once here:
// TestBenchfigsTSVOutput drives the six modeled experiments and
// TestBenchfigsProfileQuick the wall-clock profile. The structural
// assertions live in internal/harness; here we verify the CLI wiring
// (selection, rendering, shape-check reporting, TSV output) and pin the
// modeled numbers.

var update = flag.Bool("update", false, "rewrite testdata/*.tsv from this run")

func TestBenchfigsUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestBenchfigsProfileQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "profile", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"update_wts", "base_cycle share", "shape checks", "regenerated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchfigsTSVOutput runs each modeled experiment's quick sweep once
// and compares its TSV byte for byte with testdata/<name>.tsv. These six
// print virtual seconds from deterministic trajectories, so a change that
// moves any modeled number fails here; rerun with -update when the change
// is intended. TPROF is left out: it measures wall-clock time. Each case
// also checks what the experiment prints, -fig 7 running the fig 6 sweep.
func TestBenchfigsTSVOutput(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		fig, name string
		want      []string
	}{
		{"7", "fig6_7", []string{"Fig 6 — average elapsed", "Fig 7 — speedup"}},
		{"8", "fig8", []string{"Fig 8", "T(maxP)/T(minP)", "shape checks: all passed"}},
		{"seq", "seq_anchor", []string{"Pentium"}},
		{"ablation", "ablation", []string{"wts-only [7]", "shape checks: all passed"}},
		{"algo", "algo", []string{"reduce-bcast", "recursive-doubling", "ring", "shape checks: all passed"}},
		{"portability", "portability", []string{"Portability", "shape checks: all passed"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-fig", tc.fig, "-quick", "-tsv", dir}, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.name+".tsv"))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".tsv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/benchfigs -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from %s; rerun with -update if the change is intended\ngot:\n%s\nwant:\n%s", tc.name, golden, got, want)
			}
		})
	}
}
