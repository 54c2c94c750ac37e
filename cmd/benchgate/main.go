// benchgate turns raw `go test -bench` output into the repo's
// machine-readable benchmark record and gates pull requests on it.
//
// Two subcommands:
//
//	benchgate fmt     parse raw bench output on stdin into JSON, one row
//	                  per benchmark: -count repeats are aggregated into
//	                  min and median instead of emitted as duplicate rows
//	                  (BENCH_PR4.json carries three BenchmarkHeterBOSearch
//	                  rows for exactly this reason).
//	benchgate compare diff two benchmark records and fail (exit 1) when a
//	                  watched benchmark's best sample regressed by more
//	                  than the allowed percentage.
//
// Both read the historical awk-emitted schema and the schema fmt writes:
// all that compare needs is benchmarks[].{name, ns_per_op}, with repeated
// names collapsed by min.
package main

import (
	"fmt"
	"os"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  benchgate fmt [-out file] < raw-bench-output
  benchgate compare -old file -new file [-bench names] [-max-regress-pct p]
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "fmt":
		err = runFmt(os.Args[2:], os.Stdin, os.Stdout)
	case "compare":
		err = runCompare(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
