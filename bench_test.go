package mlcd_test

// The benchmark harness regenerates every figure of the paper's
// motivation and evaluation sections (see DESIGN.md §4 for the index and
// EXPERIMENTS.md for paper-vs-measured notes), plus ablations of the
// design choices DESIGN.md §5 calls out. Each benchmark reports the
// figure's headline quantity as a custom metric so `go test -bench`
// output doubles as the reproduction record.

import (
	"testing"

	"mlcd"
	"mlcd/internal/experiments"
)

var benchCfg = experiments.Config{Seed: 1}

// BenchmarkFig01a regenerates Fig. 1(a): the normalized hourly-cost
// spread of the instance catalog.
func BenchmarkFig01a(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1a(benchCfg)
		byName := map[string]float64{}
		for _, row := range r.Rows {
			byName[row.Name] = row.Normalized
		}
		spread = byName["p2.8xlarge"] / byName["c5.xlarge"]
	}
	b.ReportMetric(spread, "price-spread-x")
}

// BenchmarkFig01b regenerates Fig. 1(b): Char-RNN at equal hourly cost.
func BenchmarkFig01b(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1b(benchCfg)
		ratio = r.Rows[2].TrainHours / r.Rows[1].TrainHours
	}
	b.ReportMetric(ratio, "worst/best-x")
}

// BenchmarkFig02 regenerates Fig. 2: exhaustive sweep vs ConvBO.
func BenchmarkFig02(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Rows[0].ProfileCost / r.Rows[1].ProfileCost
	}
	b.ReportMetric(ratio, "exhaustive/convbo-cost-x")
}

// BenchmarkFig03 regenerates Fig. 3: scale-up and scale-out curves.
func BenchmarkFig03(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchCfg)
		for _, y := range r.ScaleOut.Y {
			if y > peak {
				peak = y
			}
		}
	}
	b.ReportMetric(peak, "scaleout-peak-samples/s")
}

// BenchmarkFig05 regenerates Fig. 5: ConvBO per-step gains.
func BenchmarkFig05(b *testing.B) {
	var uselessShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		useless := 0
		for _, row := range r.Rows {
			if row.CostSavingDelta <= 0 {
				useless++
			}
		}
		uselessShare = float64(useless) / float64(len(r.Rows))
	}
	b.ReportMetric(uselessShare, "useless-step-share")
}

// BenchmarkFig07 regenerates Fig. 7: next-probe selection contrast.
func BenchmarkFig07(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.ConvBOCost / r.HeterCost
	}
	b.ReportMetric(ratio, "convbo/heterbo-probe-cost-x")
}

// BenchmarkFig09 regenerates Fig. 9 (Scenario 1).
func BenchmarkFig09(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		share = r.ProfilingShare
	}
	b.ReportMetric(share, "heterbo-profiling-share")
}

// BenchmarkFig10 regenerates Fig. 10 (Scenario 2, 6 h deadline).
func BenchmarkFig10(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.HeterViolated {
			b.Fatal("HeterBO violated the deadline")
		}
		share = r.ProfilingShare
	}
	b.ReportMetric(share, "heterbo-profiling-share")
}

// BenchmarkFig11 regenerates Fig. 11 (Scenario 3, $100 budget).
func BenchmarkFig11(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.HeterViolated {
			b.Fatal("HeterBO violated the budget")
		}
		share = r.ProfilingShare
	}
	b.ReportMetric(share, "heterbo-profiling-share")
}

// BenchmarkFig12 regenerates Fig. 12: random-search whiskers vs HeterBO.
func BenchmarkFig12(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		worstMedian := 0.0
		for _, w := range r.TotalHours {
			if w.Median > worstMedian {
				worstMedian = w.Median
			}
		}
		gap = worstMedian / r.HeterBOMean
	}
	b.ReportMetric(gap, "worst-random-median/heterbo-x")
}

// BenchmarkFig13 regenerates Fig. 13: Paleo comparison under $80.
func BenchmarkFig13(b *testing.B) {
	var heterTotal float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		heterTotal = r.Rows[2].TotalCost()
	}
	b.ReportMetric(heterTotal, "heterbo-total-$")
}

// BenchmarkFig14 regenerates Fig. 14: CherryPick comparison under a
// scaled deadline.
func BenchmarkFig14(b *testing.B) {
	var heterHours float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		heterHours = r.Rows[2].TotalTime().Hours()
	}
	b.ReportMetric(heterHours, "heterbo-total-h")
}

// BenchmarkFig15 regenerates Fig. 15: the Char-RNN search trace.
func BenchmarkFig15(b *testing.B) {
	var steps float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = float64(len(r.Outcome.Steps))
	}
	b.ReportMetric(steps, "probes")
}

// BenchmarkFig16 regenerates Fig. 16: BERT/TensorFlow trace.
func BenchmarkFig16(b *testing.B) {
	var steps float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = float64(len(r.Outcome.Steps))
	}
	b.ReportMetric(steps, "probes")
}

// BenchmarkFig17 regenerates Fig. 17: BERT/MXNet trace.
func BenchmarkFig17(b *testing.B) {
	var steps float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = float64(len(r.Outcome.Steps))
	}
	b.ReportMetric(steps, "probes")
}

// BenchmarkFig18 regenerates Fig. 18: budget sensitivity.
func BenchmarkFig18(b *testing.B) {
	var bestSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for j := range r.Budgets {
			if s := r.TotalTime["convbo"][j] / r.TotalTime["heterbo"][j]; s > bestSpeedup {
				bestSpeedup = s
			}
		}
	}
	b.ReportMetric(bestSpeedup, "max-speedup-vs-convbo-x")
}

// BenchmarkFig19 regenerates Fig. 19: scalability with model size.
func BenchmarkFig19(b *testing.B) {
	var speedup20B float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup20B = r.Rows[len(r.Rows)-1].Speedup
	}
	b.ReportMetric(speedup20B, "speedup-at-20B-x")
}

// ---- Ablations (DESIGN.md §5): each switches off one HeterBO design
// choice and reports the profiling spend on the Fig. 11 setup. ----

func runAblation(b *testing.B, opts mlcd.HeterBOOptions) {
	b.Helper()
	job := mlcd.ResNetCIFAR10
	space := mlcd.NewSpace(mlcd.DefaultCatalog(), mlcd.DefaultLimits).
		Filter(func(d mlcd.Deployment) bool { return d.Type.Name == "c5.4xlarge" })
	var spend float64
	for i := 0; i < b.N; i++ {
		sim := mlcd.NewSimulator(1)
		out, err := mlcd.NewHeterBO(opts).Search(job, space, mlcd.FastestWithBudget,
			mlcd.Constraints{Budget: 100}, mlcd.NewSimProfiler(sim))
		if err != nil {
			b.Fatal(err)
		}
		spend = out.ProfileCost
	}
	b.ReportMetric(spend, "profiling-$")
}

// BenchmarkAblationFull is the reference: all HeterBO mechanisms on.
func BenchmarkAblationFull(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42})
}

// BenchmarkAblationNoCostPenalty disables the heterogeneous-cost
// division in the acquisition (plain EI selection).
func BenchmarkAblationNoCostPenalty(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, DisableCostPenalty: true})
}

// BenchmarkAblationNoPrior disables the concave scale-out prior.
func BenchmarkAblationNoPrior(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, DisableConcavePrior: true})
}

// BenchmarkAblationNoReserve disables the protective budget reserve.
func BenchmarkAblationNoReserve(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, DisableReserve: true})
}

// BenchmarkAblationRandomInit replaces the single-node-per-type init
// with conventional BO's random initialization.
func BenchmarkAblationRandomInit(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, RandomInit: true})
}

// BenchmarkAblationKernelSE swaps the Matérn 5/2 surrogate kernel for a
// squared-exponential one.
func BenchmarkAblationKernelSE(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, Kernel: mlcd.NewSEKernel(5)})
}

// BenchmarkAblationUCB swaps the EI acquisition for UCB (β=2).
func BenchmarkAblationUCB(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, Acquisition: mlcd.NewUCB(2)})
}

// BenchmarkAblationPOI swaps the EI acquisition for POI.
func BenchmarkAblationPOI(b *testing.B) {
	runAblation(b, mlcd.HeterBOOptions{Seed: 42, Acquisition: mlcd.NewPOI(0.01)})
}

// BenchmarkFidelity regenerates the analytical-vs-event-driven model
// validation table (DESIGN.md §2's substitution check).
func BenchmarkFidelity(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fidelity(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = r.Worst
	}
	b.ReportMetric(worst, "worst-model-disagreement-x")
}

// ---- Micro-benchmarks of the core machinery. ----

// BenchmarkSimulatorThroughput measures one performance-model evaluation.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sim := mlcd.NewSimulator(1)
	d := mlcd.NewDeployment(mlcd.DefaultCatalog().MustLookup("c5.4xlarge"), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Throughput(mlcd.ResNetCIFAR10, d)
	}
}

// BenchmarkHeterBOSearch measures one full scale-out search.
func BenchmarkHeterBOSearch(b *testing.B) {
	job := mlcd.ResNetCIFAR10
	space := mlcd.NewSpace(mlcd.DefaultCatalog(), mlcd.DefaultLimits).
		Filter(func(d mlcd.Deployment) bool { return d.Type.Name == "c5.4xlarge" })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mlcd.NewSimulator(1)
		_, err := mlcd.NewHeterBO(mlcd.HeterBOOptions{Seed: 42}).Search(job, space,
			mlcd.FastestUnlimited, mlcd.Constraints{}, mlcd.NewSimProfiler(sim))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeterBOWarmSearch measures the rerun after a raised budget
// (§II-C): a full-catalog search warm-started from every observation a
// cold $100 search paid for, rerun at $200. The cached observations reach
// the surrogate in one batch with one hyperparameter refit, so ns/op is
// that batch plus the few new probes the rerun pays for.
func BenchmarkHeterBOWarmSearch(b *testing.B) {
	job := mlcd.ResNetCIFAR10
	space := mlcd.NewSpace(mlcd.DefaultCatalog(), mlcd.DefaultLimits)
	cold, err := mlcd.NewHeterBO(mlcd.HeterBOOptions{Seed: 42}).Search(job, space,
		mlcd.FastestWithBudget, mlcd.Constraints{Budget: 100}, mlcd.NewSimProfiler(mlcd.NewSimulator(1)))
	if err != nil {
		b.Fatal(err)
	}
	warm := mlcd.ObservationsFromOutcome(cold)
	if len(warm) < 20 {
		b.Fatalf("cold search left %d observations, want at least 20", len(warm))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mlcd.NewHeterBO(mlcd.HeterBOOptions{Seed: 42, WarmStart: warm}).Search(job, space,
			mlcd.FastestWithBudget, mlcd.Constraints{Budget: 200}, mlcd.NewSimProfiler(mlcd.NewSimulator(1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(warm)), "warm-obs")
}

// BenchmarkDeployFaultFree measures one full deployment — search plus
// checkpointless training — through the resilient execution layer with
// no faults injected: the price the retry loop, circuit breaker, and
// interruption accounting add to the happy path. Compared in
// BENCH_PR4.json against the pre-resilience search baseline.
func BenchmarkDeployFaultFree(b *testing.B) {
	cat, err := mlcd.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := mlcd.NewSystem(mlcd.SystemConfig{
			Catalog: cat,
			Limits:  mlcd.SpaceLimits{MaxCPUNodes: 50, MaxGPUNodes: 1},
			Seed:    1,
		})
		rep, err := sys.Deploy(mlcd.ResNetCIFAR10, mlcd.Requirements{Budget: 100})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Satisfied {
			b.Fatal("budget not satisfied")
		}
	}
}
