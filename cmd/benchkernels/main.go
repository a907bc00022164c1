// Command benchkernels turns the text output of
//
//	go test -run '^$' -bench 'BenchmarkUpdateWts|BenchmarkBaseCycle' \
//	    -benchmem ./internal/autoclass
//
// (read from stdin) into BENCH_kernels.json: the committed baseline of the
// blocked-vs-reference kernel comparison. The JSON keeps every raw
// benchmark line verbatim — `jq -r .raw_lines[]` reconstructs input
// benchstat accepts — alongside the parsed ns/op, B/op and allocs/op of
// each benchmark and the blocked-vs-reference speedup per benchmark
// family, so CI can assert on the numbers without re-parsing Go's bench
// format.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path, e.g.
	// "BenchmarkBaseCycle/kernels=blocked".
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Speedup compares the kernels=blocked and kernels=reference variants of
// one benchmark family.
type Speedup struct {
	Benchmark   string  `json:"benchmark"`
	BlockedNs   float64 `json:"blocked_ns_per_op"`
	ReferenceNs float64 `json:"reference_ns_per_op"`
	// Speedup is reference/blocked: >1 means the blocked kernels win.
	Speedup float64 `json:"speedup"`
	// BytesNotIncreased is true when blocked B/op <= reference B/op (or
	// -benchmem was off); the ISSUE-4 acceptance requires it.
	BytesNotIncreased bool `json:"bytes_not_increased"`
}

// Report is the BENCH_kernels.json schema.
type Report struct {
	// Goos/Goarch/CPU echo the bench header when present.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Results holds every parsed benchmark line.
	Results []Result `json:"results"`
	// Speedups pairs blocked vs reference per benchmark family.
	Speedups []Speedup `json:"speedups"`
	// RawLines are the verbatim benchmark lines (benchstat-compatible).
	RawLines []string `json:"raw_lines"`
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output path (- for stdout)")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchkernels:", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchkernels:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchkernels:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		rep.Results = append(rep.Results, res)
		rep.RawLines = append(rep.RawLines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Speedups = speedups(rep.Results)
	return rep, nil
}

// parseBenchLine parses one `BenchmarkName-8  N  X ns/op [Y B/op  Z allocs/op]`
// line. The -8 GOMAXPROCS suffix is stripped from the name.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	res := Result{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp = &v
		case "allocs/op":
			res.AllocsPerOp = &v
		}
	}
	return res, true
}

// speedups pairs kernels=blocked with kernels=reference within each
// benchmark family (the name up to the sub-benchmark separator).
func speedups(results []Result) []Speedup {
	type pair struct{ blocked, reference *Result }
	fams := map[string]*pair{}
	for i := range results {
		res := &results[i]
		base, variant, ok := strings.Cut(res.Name, "/")
		if !ok {
			continue
		}
		p := fams[base]
		if p == nil {
			p = &pair{}
			fams[base] = p
		}
		switch variant {
		case "kernels=blocked":
			p.blocked = res
		case "kernels=reference":
			p.reference = res
		}
	}
	names := make([]string, 0, len(fams))
	for name, p := range fams {
		if p.blocked != nil && p.reference != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]Speedup, 0, len(names))
	for _, name := range names {
		p := fams[name]
		s := Speedup{
			Benchmark:         name,
			BlockedNs:         p.blocked.NsPerOp,
			ReferenceNs:       p.reference.NsPerOp,
			Speedup:           p.reference.NsPerOp / p.blocked.NsPerOp,
			BytesNotIncreased: true,
		}
		if p.blocked.BytesPerOp != nil && p.reference.BytesPerOp != nil {
			s.BytesNotIncreased = *p.blocked.BytesPerOp <= *p.reference.BytesPerOp
		}
		out = append(out, s)
	}
	return out
}
