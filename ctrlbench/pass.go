package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// searchShape sizes a search workload. A round submits, per client,
// whole passes over the client's satisfiable (model, requirement) pairs
// (so every seed submits the same mix); a run repeats rounds, each in
// another seeded order, until it has measured about --seconds.
type searchShape struct {
	cycles   [2]int  // passes per client per round
	roundSec float64 // a round's measured seconds on a 2-vCPU x86-64 host
}

var (
	// One pass each keeps cold-search's two clients busy for about the
	// same time: client 0's 20 CNN searches against client 1's 32.
	coldShape = searchShape{cycles: [2]int{1, 1}, roundSec: 3.3}
	// Warm-rerun reruns budget pairs only: 9 on client 0, 13 on client 1.
	// One rerun per identity per round keeps history from growing, so
	// more identities, not more reruns, carry the sample count.
	warmShape = searchShape{cycles: [2]int{2, 3}, roundSec: 4.5}
	// admitPostsPerSec is each durable-admit client's timed POSTs per
	// measured second; a round measures about admitRoundSec, and the
	// backlog replayed at each set-up is admitBacklogShare of a round.
	admitPostsPerSec  = 12000.0
	admitRoundSec     = 1.0
	admitBacklogShare = 1.0
)

// passConfig is one pass of a workload: a full set-up and timed phase.
type passConfig struct {
	workload string
	name     string // names the pass's journal directory
	seed     int64
	seconds  int
	share    float64 // share of the full run's work
	ram      string  // RAM-backed parent of the pass's journals
	tr       *tracer // nil → untraced
}

// searchPlan is how many rounds a search pass runs and how many jobs
// each client submits per round. Below one round's worth of work (the
// self-test's tiny runs) it runs one round over the first few pairs.
func (pc passConfig) searchPlan(sh searchShape, warm bool) (int, [2]int) {
	var jobs [2]int
	work := float64(pc.seconds) * pc.share / sh.roundSec
	for c := range 2 {
		n := sh.cycles[c] * len(combos(c, warm))
		if work < 1 {
			n = max(2, int(math.Round(work*float64(n))))
		}
		jobs[c] = n
	}
	return max(1, int(work)), jobs
}

// admitPlan is how many rounds a durable-admit pass runs and how many
// POSTs each client makes per round. Below one round's worth of work
// (the self-test's tiny runs) it runs one shorter round.
func (pc passConfig) admitPlan() (int, int) {
	work := float64(pc.seconds) * pc.share / admitRoundSec
	perRound := admitPostsPerSec * admitRoundSec
	if work < 1 {
		return 1, max(10, int(math.Round(work*perRound)))
	}
	return int(work), int(perRound)
}

// journalDir is the pass's journal directory, emptied before use.
func (pc passConfig) journalDir(kind string) (string, error) {
	dir := filepath.Join(pc.ram, pc.name+"-"+kind)
	return dir, os.RemoveAll(dir)
}

// passResult is what one pass measured and checked.
type passResult struct {
	name      string
	e2e       map[string]float64
	layers    map[string]float64
	digest    string
	attempted int
	failed    int
	problems  []string // failed correctness checks
	diag      []string // diagnostics printed beside the metrics
}

func newPassResult(name string) passResult {
	return passResult{name: name, e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (p *passResult) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *passResult) note(format string, args ...any) {
	p.diag = append(p.diag, fmt.Sprintf(format, args...))
}

// lines renders the pass's diagnostics for the text output.
func (p passResult) lines(workload string) []string {
	var out []string
	for _, d := range p.diag {
		out = append(out, fmt.Sprintf("%s[%s]: %s", workload, p.name, d))
	}
	if p.digest != "" {
		out = append(out, fmt.Sprintf("%s[%s]: digest %s", workload, p.name, p.digest))
	}
	return out
}

func runPass(pc passConfig) (passResult, error) {
	switch pc.workload {
	case "cold-search":
		return runSearch(pc, false)
	case "warm-rerun":
		return runSearch(pc, true)
	default:
		return runAdmit(pc)
	}
}

// median of set-up durations, in seconds.
func medianSetup(ds []time.Duration) float64 { return quantile(durationsSec(ds), 0.5) }
