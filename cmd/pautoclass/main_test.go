package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

func writeDataset(t *testing.T, n int) string {
	t.Helper()
	ds, err := datagen.Paper(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.txt")
	if err := dataset.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLISequentialRun(t *testing.T) {
	path := writeDataset(t, 500)
	var buf bytes.Buffer
	err := run([]string{"-data", path, "-start-j", "2,5", "-tries", "1", "-max-cycles", "30"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"best classification", "log likelihood", "tries:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIParallelWithMachineAndReport(t *testing.T) {
	path := writeDataset(t, 800)
	var buf bytes.Buffer
	err := run([]string{
		"-data", path, "-procs", "4", "-start-j", "5", "-tries", "1",
		"-max-cycles", "30", "-machine", "meiko", "-report",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"virtual time on Meiko", "AutoClass classification report", "influence:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLISearchParallelism: -search-parallelism runs concurrent tries on
// the sequential engine, whose one-worker run (-resume at -procs 1) prints
// the same best classification; with -procs > 1 it is refused, since the
// SPMD engine runs one try at a time.
func TestCLISearchParallelism(t *testing.T) {
	path := writeDataset(t, 500)
	base := []string{"-data", path, "-start-j", "2,5", "-tries", "1", "-max-cycles", "30"}
	t.Run("sequential engine", func(t *testing.T) {
		var ref bytes.Buffer
		if err := run(append([]string{"-resume", filepath.Join(t.TempDir(), "state.json")}, base...), &ref); err != nil {
			t.Fatal(err)
		}
		var par bytes.Buffer
		if err := run(append([]string{"-search-parallelism", "2"}, base...), &par); err != nil {
			t.Fatal(err)
		}
		if header := headerLine(t, par.String()); !strings.Contains(header, "engine=sequential") {
			t.Fatalf("-search-parallelism 2 header %q, want engine=sequential", header)
		}
		want := bestLine(t, ref.String())
		if got := bestLine(t, par.String()); got != want {
			t.Fatalf("variant-parallel best %q, one-worker best %q", got, want)
		}
	})
	t.Run("refused with procs", func(t *testing.T) {
		err := run(append([]string{"-procs", "2", "-search-parallelism", "2"}, base...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "sequential engine") {
			t.Fatalf("-procs 2 -search-parallelism 2: %v", err)
		}
	})
}

// TestCLIEngineHeader: the search header names the sequential engine
// where it runs (-resume at -procs 1) instead of a rank count, which only
// the SPMD engine has; -procs selects the engine for the correlated model
// as for the default one.
func TestCLIEngineHeader(t *testing.T) {
	path := writeDataset(t, 300)
	base := []string{"-data", path, "-start-j", "3", "-tries", "1", "-max-cycles", "10"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"default", nil, "procs=1"},
		{"procs 2", []string{"-procs", "2"}, "procs=2"},
		{"correlated", []string{"-correlated"}, "procs=1"},
		{"correlated procs 2", []string{"-correlated", "-procs", "2"}, "procs=2"},
		{"resume", []string{"-resume", filepath.Join(t.TempDir(), "state.json")}, "engine=sequential"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(append(tc.args, base...), &buf); err != nil {
				t.Fatal(err)
			}
			header := headerLine(t, buf.String())
			if !strings.Contains(header, tc.want) {
				t.Fatalf("header %q, want %q in it", header, tc.want)
			}
			if tc.want == "engine=sequential" && strings.Contains(header, "procs=") {
				t.Fatalf("the sequential engine's header %q names a rank count", header)
			}
		})
	}
}

// headerLine returns the search header of a run's output.
func headerLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "search: ") {
			return line
		}
	}
	t.Fatalf("no search header in:\n%s", out)
	return ""
}

func bestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "best classification") {
			return line
		}
	}
	t.Fatalf("no best-classification line in:\n%s", out)
	return ""
}

func TestCLICorrelatedSpec(t *testing.T) {
	path := writeDataset(t, 400)
	var buf bytes.Buffer
	err := run([]string{"-data", path, "-start-j", "3", "-tries", "1", "-max-cycles", "20", "-correlated"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCLICheckpointOutput(t *testing.T) {
	path := writeDataset(t, 300)
	ck := filepath.Join(t.TempDir(), "best.json")
	var buf bytes.Buffer
	err := run([]string{"-data", path, "-start-j", "3", "-tries", "1", "-max-cycles", "15", "-checkpoint", ck}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoint written") {
		t.Fatalf("no checkpoint message:\n%s", buf.String())
	}
	ds, err := dataset.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&autoclass.Checkpoint{}).LoadFile(ck, ds); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	path := writeDataset(t, 50)
	state := filepath.Join(t.TempDir(), "state.json")
	var buf bytes.Buffer
	cases := map[string][]string{
		"no-data":      {},
		"missing-file": {"-data", "/nonexistent/x.txt"},
		"bad-machine":  {"-data", path, "-machine", "cray"},
		"bad-startj":   {"-data", path, "-start-j", "2,x"},
		"bad-flag":     {"-zzz"},
		// -resume at -procs 1 runs the sequential engine, which has no
		// machine model.
		"seq-resume-machine": {"-data", path, "-resume", state, "-machine", "meiko"},
	}
	for name, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %q accepted", name)
		}
	}
}

func TestCLIModelSearch(t *testing.T) {
	path := writeDataset(t, 400)
	var buf bytes.Buffer
	err := run([]string{"-data", path, "-start-j", "3", "-tries", "1", "-max-cycles", "20", "-models"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"model-level search", "independent", "correlated", "best model form"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIResumeAndCases: -resume at -procs 1 runs the sequential engine on
// the same path as every other search, so -phase-profile and -metrics-out
// report on it, and the resumed run's table includes the restored tries.
func TestCLIResumeAndCases(t *testing.T) {
	path := writeDataset(t, 400)
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	casesPath := filepath.Join(dir, "cases.txt")
	metricsPath := filepath.Join(dir, "metrics.json")
	args := []string{"-data", path, "-start-j", "3,5", "-tries", "1", "-max-cycles", "20",
		"-resume", state, "-cases", casesPath, "-phase-profile", "-metrics-out", metricsPath}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resumable search", "update_wts", "initialization", "metrics written to"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
	if fi, err := os.Stat(metricsPath); err != nil || fi.Size() == 0 {
		t.Fatalf("metrics file: %v", err)
	}
	// Second run resumes instantly from the complete state.
	buf.Reset()
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "update_wts") {
		t.Fatalf("resumed run printed no phase table:\n%s", buf.String())
	}
	if _, err := os.Stat(casesPath); err != nil {
		t.Fatalf("cases file: %v", err)
	}
}

func TestCLIParallelResume(t *testing.T) {
	path := writeDataset(t, 400)
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	ck := filepath.Join(dir, "best.json")
	args := []string{"-data", path, "-procs", "3", "-start-j", "3,5", "-tries", "1",
		"-max-cycles", "20", "-resume", state, "-checkpoint-every", "4",
		"-op-timeout", "30s", "-checkpoint", ck}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resumable parallel search") {
		t.Fatalf("output:\n%s", buf.String())
	}
	first, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("search state file: %v", err)
	}
	// Relaunching against the finished state replays nothing and writes the
	// bitwise-identical best classification.
	buf.Reset()
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("relaunched search wrote a different best classification")
	}
}

func TestCLIClassifyMode(t *testing.T) {
	path := writeDataset(t, 300)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	var buf bytes.Buffer
	if err := run([]string{"-data", path, "-start-j", "3", "-tries", "1",
		"-max-cycles", "15", "-checkpoint", ck}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-data", path, "-classify", ck}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classifying 300 tuples", "class sizes", "# case assignments"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Classify with cases file output.
	casesPath := filepath.Join(dir, "c.txt")
	buf.Reset()
	if err := run([]string{"-data", path, "-classify", ck, "-cases", casesPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(casesPath); err != nil {
		t.Fatalf("cases file: %v", err)
	}
	// Bad checkpoint path errors.
	if err := run([]string{"-data", path, "-classify", "/nonexistent.json"}, &buf); err == nil {
		t.Fatal("bad checkpoint accepted")
	}
}

// writeChunkedDataset writes the paper workload as a chunk file.
func writeChunkedDataset(t *testing.T, n, chunkRows int) string {
	t.Helper()
	ds, err := datagen.Paper(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.chunks")
	if err := dataset.WriteChunked(path, ds, chunkRows); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIChunkedRun: -chunked trains out of core from a chunk file; the
// runs with and without -memory-budget print what a run over the same
// rows loaded in memory prints, wall time aside.
func TestCLIChunkedRun(t *testing.T) {
	dataPath := writeDataset(t, 1024)
	chunkPath := writeChunkedDataset(t, 1024, 256)
	common := []string{"-start-j", "2,5", "-tries", "1", "-max-cycles", "30", "-procs", "2"}
	var want bytes.Buffer
	if err := run(append([]string{"-data", dataPath}, common...), &want); err != nil {
		t.Fatal(err)
	}
	// Strip the wall-time line; everything else must match verbatim.
	trim := func(s string) string {
		var keep []string
		for _, ln := range strings.Split(s, "\n") {
			if strings.HasPrefix(ln, "wall time:") {
				continue
			}
			keep = append(keep, ln)
		}
		return strings.Join(keep, "\n")
	}
	for _, args := range [][]string{
		{"-chunked", chunkPath},
		{"-chunked", chunkPath, "-memory-budget", "64KiB"},
	} {
		var got bytes.Buffer
		if err := run(append(args, common...), &got); err != nil {
			t.Fatal(err)
		}
		if trim(got.String()) != trim(want.String()) {
			t.Fatalf("chunked output differs:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want.String())
		}
	}
}

func TestCLIChunkedErrors(t *testing.T) {
	dataPath := writeDataset(t, 50)
	chunkPath := writeChunkedDataset(t, 512, 256)
	var buf bytes.Buffer
	cases := map[string][]string{
		"chunked-and-data":       {"-data", dataPath, "-chunked", chunkPath},
		"budget-without-chunked": {"-data", dataPath, "-memory-budget", "1MiB"},
		"bad-budget":             {"-chunked", chunkPath, "-memory-budget", "lots"},
		"negative-budget":        {"-chunked", chunkPath, "-memory-budget", "-3MiB"},
	}
	for name, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %q accepted", name)
		}
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"123":    123,
		"64KiB":  64 << 10,
		"2MiB":   2 << 20,
		"1GiB":   1 << 30,
		"5kb":    5000,
		"3 MB":   3_000_000,
		"1gb":    1_000_000_000,
		"1024B":  1024,
		" 7MiB ": 7 << 20,
	}
	for in, want := range good {
		got, err := parseBytes(in)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", in, err)
		} else if got != want {
			t.Errorf("parseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, in := range []string{"", "x", "12XB", "-5", "0"} {
		if _, err := parseBytes(in); err == nil {
			t.Errorf("parseBytes(%q) accepted", in)
		}
	}
}
