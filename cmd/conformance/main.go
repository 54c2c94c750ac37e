// Command conformance soaks the system against the exhaustive oracle:
// it generates randomized scenario cases (all three user scenarios,
// every fourth case under a chaos plan), runs each end to end through
// mlcdsys, checks every invariant, and — on failure — shrinks the case
// to a minimal reproducer written as replayable JSON.
//
// Usage:
//
//	conformance -cases 200 -seed 7 -shrink -out conformance-failures
//
// -shards N soaks the cases on a pool of N workers. Each case writes its
// output and tally into its own slot, and slots are flushed and merged
// in case order, so stdout, stderr and the exit status are the same at
// every worker count.
//
// With -regret-out the binary runs the paired regret-vs-profiling-cost
// suite instead of the soak; with -fleet-out it runs the paired
// cold-vs-fleet-warmed study (BENCH_PR10.json), gating on zero invariant
// violations and on the fleet-warmed arm converging to within 5 % of the
// oracle in strictly fewer probes (median) than the cold arm.
//
// Exit status 1 when any case errors or violates an invariant. The one
// exception is rate-bounded: oracle-regret is a quality SLO on a
// randomized optimizer, not a hard correctness property, so a case
// whose ONLY violation is the regret bound counts as a tail outlier
// and the soak fails on those only when their rate exceeds
// -max-regret-outlier-rate (default 0: every outlier fails, the
// historical behavior). Outliers are still reported, shrunk, and
// written as reproducers either way — the allowance bounds the exit
// status, never the evidence.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mlcd/internal/conformance"
	"mlcd/internal/profiler"
	"mlcd/internal/rngtape"
	"mlcd/internal/search"
)

// config carries the soak parameters main parses from flags.
type config struct {
	cases          int
	seed           int64
	shards         int
	shrink         bool
	out            string
	verbose        bool
	fidelity       string
	regretOut      string
	regretCases    int
	fleetOut       string
	fleetCases     int
	maxOutlierRate float64
}

func main() {
	var cfg config
	flag.IntVar(&cfg.cases, "cases", 50, "number of randomized cases to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.IntVar(&cfg.shards, "shards", 1, "soak workers running cases concurrently (output is the same at any count)")
	flag.BoolVar(&cfg.shrink, "shrink", true, "shrink failing cases to minimal reproducers")
	flag.StringVar(&cfg.out, "out", "conformance-failures", "directory for reproducer JSON files")
	flag.BoolVar(&cfg.verbose, "v", false, "log every case, not just failures")
	flag.StringVar(&cfg.fidelity, "fidelity", "", "comma-separated sub-sampling ladder forced onto every soak case, e.g. 0.25,0.5 (empty = the generator's own rotation)")
	flag.StringVar(&cfg.regretOut, "regret-out", "", "run the paired regret-vs-profiling-cost suite instead of the soak and write its JSON report here")
	flag.IntVar(&cfg.regretCases, "regret-cases", 40, "case pairs for the regret suite (-regret-out mode)")
	flag.StringVar(&cfg.fleetOut, "fleet-out", "", "run the paired cold-vs-fleet-warmed study instead of the soak and write its JSON report here")
	flag.IntVar(&cfg.fleetCases, "fleet-cases", 40, "case pairs for the fleet study (-fleet-out mode)")
	flag.Float64Var(&cfg.maxOutlierRate, "max-regret-outlier-rate", 0,
		"fraction of cases allowed to fail the oracle-regret bound alone before the soak exits nonzero (0 = strict)")
	flag.Parse()
	if cfg.regretOut != "" {
		if err := regretStudy(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if cfg.fleetOut != "" {
		if err := fleetStudy(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if soak(cfg, os.Stdout, os.Stderr) > 0 {
		os.Exit(1)
	}
}

// regretStudy runs the paired regret-vs-profiling-dollars suite and
// writes the BENCH-shaped JSON report.
func regretStudy(cfg config, stdout io.Writer) error {
	ladder, err := profiler.ParseLadder(cfg.fidelity)
	if err != nil {
		return err
	}
	if len(ladder) == 0 {
		ladder = []float64{0.25, 0.5}
	}
	rep, err := conformance.RegretSuite(cfg.seed, cfg.regretCases, ladder)
	if err != nil {
		return err
	}
	if err := conformance.WriteRegretReport(cfg.regretOut, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "regret suite: %d pairs, ladder %v\n", cfg.regretCases, ladder)
	fmt.Fprintf(stdout, "  full:  mean regret %.4f, within-5%%-of-oracle %d/%d, profiling $%.2f over %d probes\n",
		rep.Full.MeanRegret, rep.Full.Within5Pct, rep.Full.Cases, rep.Full.ProfileUSD, rep.Full.Probes)
	fmt.Fprintf(stdout, "  multi: mean regret %.4f, within-5%%-of-oracle %d/%d, profiling $%.2f over %d probes (%d sub-sampled)\n",
		rep.Multi.MeanRegret, rep.Multi.Within5Pct, rep.Multi.Cases, rep.Multi.ProfileUSD, rep.Multi.Probes, rep.Multi.LowFiProbes)
	fmt.Fprintf(stdout, "  savings: %.1f%% of profiling dollars, %.1f%% of profiling hours -> %s\n",
		rep.SavingsUSDPct, rep.SavingsHoursPct, cfg.regretOut)
	if rep.Full.Violations+rep.Multi.Violations > 0 {
		return fmt.Errorf("conformance: regret suite found %d invariant violations",
			rep.Full.Violations+rep.Multi.Violations)
	}
	return nil
}

// fleetStudy runs the paired cold-vs-fleet-warmed suite and writes the
// BENCH_PR10-shaped JSON report. It exits nonzero on any invariant
// violation in either arm, or when the fleet-warmed arm does not reach
// within 5 % of the oracle in strictly fewer probes (median) than cold —
// the prior paying for itself is the property the study gates.
func fleetStudy(cfg config, stdout io.Writer) error {
	rep, err := conformance.FleetStudy(cfg.seed, cfg.fleetCases)
	if err != nil {
		return err
	}
	if err := conformance.WriteFleetReport(cfg.fleetOut, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleet study: %d pairs (%d scored in both arms)\n", cfg.fleetCases, rep.Pairs)
	fmt.Fprintf(stdout, "  cold: median probes-to-5%% %.1f (mean %.1f, %d never), mean regret %.4f, profiling $%.2f over %d probes\n",
		rep.Cold.MedianProbesTo5, rep.Cold.MeanProbesTo5, rep.Cold.NeverWithin5, rep.Cold.MeanRegret, rep.Cold.ProfileUSD, rep.Cold.Probes)
	fmt.Fprintf(stdout, "  warm: median probes-to-5%% %.1f (mean %.1f, %d never), mean regret %.4f, profiling $%.2f over %d probes\n",
		rep.Warm.MedianProbesTo5, rep.Warm.MeanProbesTo5, rep.Warm.NeverWithin5, rep.Warm.MeanRegret, rep.Warm.ProfileUSD, rep.Warm.Probes)
	fmt.Fprintf(stdout, "  paired: warm fewer %d, ties %d, cold fewer %d -> %s\n",
		rep.WarmFewer, rep.Ties, rep.ColdFewer, cfg.fleetOut)
	if rep.Cold.Violations+rep.Warm.Violations > 0 {
		return fmt.Errorf("conformance: fleet study found %d invariant violations",
			rep.Cold.Violations+rep.Warm.Violations)
	}
	if !rep.WarmMedianLower {
		return fmt.Errorf("conformance: fleet-warmed median probes-to-5%% (%.1f) is not below cold (%.1f)",
			rep.Warm.MedianProbesTo5, rep.Cold.MedianProbesTo5)
	}
	return nil
}

// tally accumulates one soak case's outcome, or the whole soak's.
// failures are hard: case errors and violations of any correctness
// invariant.
// regretOutliers are cases whose only violation is the oracle-regret
// quality bound — counted apart so the gate can budget them.
type tally struct {
	failures       int
	regretOutliers int
	declined       int
	chaosCases     int
	perScenario    map[search.Scenario]int
	regretSum      float64
	regretMax      float64
	regretN        int
}

func newTally() *tally { return &tally{perScenario: map[search.Scenario]int{}} }

func (t *tally) merge(o *tally) {
	t.failures += o.failures
	t.regretOutliers += o.regretOutliers
	t.declined += o.declined
	t.chaosCases += o.chaosCases
	for k, v := range o.perScenario {
		t.perScenario[k] += v
	}
	t.regretSum += o.regretSum
	t.regretN += o.regretN
	if o.regretMax > t.regretMax {
		t.regretMax = o.regretMax
	}
}

// regretOnly reports whether every violation is the oracle-regret
// bound — the tail-outlier shape the soak may budget for.
func regretOnly(vs []conformance.Violation) bool {
	for _, v := range vs {
		if v.Invariant != conformance.InvRegret {
			return false
		}
	}
	return len(vs) > 0
}

// gateFailures folds a soak's tallies into the count main exits on:
// every hard failure, plus regret outliers beyond the budgeted rate.
func gateFailures(hard, outliers, cases int, rate float64) int {
	allowed := int(rate * float64(cases))
	if excess := outliers - allowed; excess > 0 {
		return hard + excess
	}
	return hard
}

// soak runs the randomized conformance loop and returns the failure
// count. Split from main so the soak is testable without an exec.
func soak(cfg config, stdout, stderr io.Writer) int {
	// Case generation consumes the rng sequentially, so the full set is
	// built up front — the same set regardless of worker count.
	rng := rngtape.New(cfg.seed)
	ladder, err := profiler.ParseLadder(cfg.fidelity)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cases := make([]conformance.Case, cfg.cases)
	for i := range cases {
		cases[i] = conformance.GenerateCase(rng, i)
		cases[i].Name = fmt.Sprintf("case-%04d", i)
		// An explicit -fidelity ladder overrides the generator's own
		// rotation on every case, so a soak can stress one ladder hard.
		if len(ladder) > 0 {
			cases[i].Fidelities = ladder
		}
	}

	// Workers take cases in order; the flush below waits for each slot in
	// turn, so output streams as soon as every earlier case is done.
	type slot struct {
		out, err bytes.Buffer
		tally    *tally
		done     chan struct{}
	}
	slots := make([]slot, len(cases))
	for i := range slots {
		slots[i].tally = newTally()
		slots[i].done = make(chan struct{})
	}
	next := make(chan int, len(cases))
	for i := range cases {
		next <- i
	}
	close(next)
	for w := 0; w < max(cfg.shards, 1); w++ {
		go func() {
			for i := range next {
				sl := &slots[i]
				runCase(cases[i], cfg, sl.tally, &sl.out, &sl.err)
				close(sl.done)
			}
		}()
	}
	total := newTally()
	for i := range slots {
		sl := &slots[i]
		<-sl.done
		_, _ = io.Copy(stdout, &sl.out)
		_, _ = io.Copy(stderr, &sl.err)
		total.merge(sl.tally)
	}

	fmt.Fprintf(stdout, "conformance: %d cases (%d chaos; s1=%d s2=%d s3=%d), %d declined, %d failures",
		cfg.cases, total.chaosCases,
		total.perScenario[search.FastestUnlimited], total.perScenario[search.CheapestWithDeadline], total.perScenario[search.FastestWithBudget],
		total.declined, total.failures)
	if total.regretOutliers > 0 || cfg.maxOutlierRate > 0 {
		fmt.Fprintf(stdout, ", %d regret outliers (budget %d)",
			total.regretOutliers, int(cfg.maxOutlierRate*float64(cfg.cases)))
	}
	if total.regretN > 0 {
		fmt.Fprintf(stdout, ", regret mean=%.3f max=%.3f over %d scored picks",
			total.regretSum/float64(total.regretN), total.regretMax, total.regretN)
	}
	fmt.Fprintln(stdout)
	return gateFailures(total.failures, total.regretOutliers, cfg.cases, cfg.maxOutlierRate)
}

// runCase soaks one case into t.
func runCase(c conformance.Case, cfg config, t *tally, stdout, stderr io.Writer) {
	t.perScenario[search.Scenario(c.Scenario)]++
	if c.Chaos != nil {
		t.chaosCases++
	}

	art, err := conformance.RunCase(c)
	if conformance.Declined(err) {
		t.declined++
		if cfg.verbose {
			fmt.Fprintf(stdout, "decl %s: %v\n", c.Name, err)
		}
		return
	}
	if err != nil {
		t.failures++
		fmt.Fprintf(stderr, "FAIL %s: %v\n", c.Name, err)
		writeReproducer(stderr, cfg.out, c.Name, c)
		return
	}
	vs := conformance.Check(art)
	if r, ok := art.Oracle.Regret(art.Scenario, art.UserCons, art.Report.Outcome.Best); ok {
		t.regretSum += r
		t.regretN++
		if r > t.regretMax {
			t.regretMax = r
		}
	}
	if len(vs) == 0 {
		if cfg.verbose {
			fmt.Fprintf(stdout, "ok   %s %s job=%s types=%d chaos=%v\n",
				c.Name, art.Scenario, c.Job, len(c.Types), c.Chaos != nil)
		}
		return
	}
	verdict := "FAIL"
	if regretOnly(vs) {
		t.regretOutliers++
		verdict = "TAIL" // regret-only: budgeted by -max-regret-outlier-rate
	} else {
		t.failures++
	}
	fmt.Fprintf(stderr, "%s %s (%d violations):\n", verdict, c.Name, len(vs))
	for _, v := range vs {
		fmt.Fprintf(stderr, "  %s\n", v)
	}
	min := c
	if cfg.shrink {
		res := conformance.Shrink(c, vs)
		min = res.Case
		fmt.Fprintf(stderr, "  shrunk to %d types / %d max nodes in %d evals\n",
			len(min.Types), min.MaxNodes, res.Evals)
	}
	writeReproducer(stderr, cfg.out, c.Name, min)
}

// writeReproducer saves a failing case under dir, creating it lazily so
// a clean soak leaves nothing behind.
func writeReproducer(stderr io.Writer, dir, name string, c conformance.Case) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "  (cannot create %s: %v)\n", dir, err)
		return
	}
	path := filepath.Join(dir, name+".json")
	if err := conformance.WriteCase(path, c); err != nil {
		fmt.Fprintf(stderr, "  (cannot write %s: %v)\n", path, err)
		return
	}
	fmt.Fprintf(stderr, "  reproducer: %s\n", path)
}
