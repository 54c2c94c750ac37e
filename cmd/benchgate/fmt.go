package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// sample is one raw benchmark line: a single timing of one benchmark.
type sample struct {
	name    string
	pkg     string
	iters   int64
	ns      float64
	bytes   *int64
	allocs  *int64
	metrics map[string]float64
}

// row is the emitted record for one benchmark: -count repeats collapsed
// into a min (the comparable number on a shared machine) and a median
// (the honest central tendency), never duplicate rows.
type row struct {
	Name        string             `json:"name"`
	Package     string             `json:"package"`
	Samples     int                `json:"samples"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsMedian    *float64           `json:"ns_per_op_median,omitempty"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// record is the whole benchmark file.
type record struct {
	Benchmarks []row `json:"benchmarks"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBench reads raw `go test -bench` output: `pkg:` headers set the
// package of subsequent lines, benchmark lines are the name, the
// iteration count, then (value, unit) pairs — ns/op, the allocation
// counters when -benchmem or ReportAllocs is on, and any custom
// ReportMetric units.
func parseBench(r io.Reader) ([]sample, error) {
	var out []sample
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo \t--- FAIL"
		}
		s := sample{
			name:  gomaxprocsSuffix.ReplaceAllString(f[0], ""),
			pkg:   pkg,
			iters: iters,
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", s.name, f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				s.ns = v
			case "B/op":
				b := int64(v)
				s.bytes = &b
			case "allocs/op":
				a := int64(v)
				s.allocs = &a
			default:
				if s.metrics == nil {
					s.metrics = make(map[string]float64)
				}
				s.metrics[unit] = v
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// aggregate groups samples by benchmark name (first-seen order) and
// collapses each group to one row: ns_per_op is the min across repeats,
// ns_per_op_median the median, and the remaining columns come from the
// min sample.
func aggregate(samples []sample) []row {
	var order []string
	groups := make(map[string][]sample)
	for _, s := range samples {
		if _, ok := groups[s.name]; !ok {
			order = append(order, s.name)
		}
		groups[s.name] = append(groups[s.name], s)
	}
	rows := make([]row, 0, len(order))
	for _, name := range order {
		g := groups[name]
		best := g[0]
		ns := make([]float64, len(g))
		for i, s := range g {
			ns[i] = s.ns
			if s.ns < best.ns {
				best = s
			}
		}
		r := row{
			Name:        name,
			Package:     best.pkg,
			Samples:     len(g),
			Iterations:  best.iters,
			NsPerOp:     best.ns,
			BytesPerOp:  best.bytes,
			AllocsPerOp: best.allocs,
			Metrics:     best.metrics,
		}
		if len(g) > 1 {
			m := median(ns)
			r.NsMedian = &m
		}
		rows = append(rows, r)
	}
	return rows
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func runFmt(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark lines on input")
	}
	buf, err := marshalRecord(record{Benchmarks: aggregate(samples)}, *out)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// marshalRecord renders rec, carrying over any foreign top-level keys an
// existing record at out holds — `loadgen -merge-key` parks its storm
// results (e.g. "loadgen_kill") alongside the benchmark rows, and a
// bench.sh re-run must not silently discard them.
func marshalRecord(rec record, out string) ([]byte, error) {
	own, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	merged := map[string]json.RawMessage{}
	if out != "" {
		if prev, err := os.ReadFile(out); err == nil {
			// An unparsable previous record is not worth failing fmt over;
			// it is simply replaced.
			_ = json.Unmarshal(prev, &merged)
		}
	}
	var ownKeys map[string]json.RawMessage
	if err := json.Unmarshal(own, &ownKeys); err != nil {
		return nil, err
	}
	// Our keys always overwrite. Records written before the frozen
	// cross-machine reference ratios were retired still hold reference/
	// speedup sections; those are dropped rather than carried forward.
	delete(merged, "reference")
	delete(merged, "speedup")
	for k, v := range ownKeys {
		merged[k] = v
	}
	buf, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
