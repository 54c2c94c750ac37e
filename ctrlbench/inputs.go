package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mlcd/internal/mlcdsys"
	"mlcd/internal/sched"
	"mlcd/internal/workload"
)

// requirement is one tenant requirement: at most one of the two is set,
// and neither means "fastest, unlimited".
type requirement struct {
	BudgetUSD     float64
	DeadlineHours float64
}

// The requirement levels the search workloads draw from, per scenario.
var (
	budgetLevels   = []float64{100, 200, 400}
	deadlineLevels = []float64{6, 12, 24}
)

// allRequirements lists every drawable requirement: unlimited, each
// budget level and each deadline level.
func allRequirements() []requirement {
	out := []requirement{{}}
	for _, b := range budgetLevels {
		out = append(out, requirement{BudgetUSD: b})
	}
	for _, h := range deadlineLevels {
		out = append(out, requirement{DeadlineHours: h})
	}
	return out
}

func (r requirement) String() string {
	switch {
	case r.BudgetUSD > 0:
		return fmt.Sprintf("budget=$%g", r.BudgetUSD)
	case r.DeadlineHours > 0:
		return fmt.Sprintf("deadline=%gh", r.DeadlineHours)
	default:
		return "unlimited"
	}
}

// relaxed doubles the constraint: the re-run-after-raising-the-budget
// case. An unlimited requirement stays unlimited.
func (r requirement) relaxed() requirement {
	return requirement{BudgetUSD: 2 * r.BudgetUSD, DeadlineHours: 2 * r.DeadlineHours}
}

func (r requirement) sched() mlcdsys.Requirements {
	return mlcdsys.Requirements{
		Budget:   r.BudgetUSD,
		Deadline: time.Duration(r.DeadlineHours * float64(time.Hour)),
	}
}

// declines reports the draws no deployment of the menu model satisfies,
// so the daemon always answers them with a failed job; no workload draws
// them.
func declines(model string, r requirement) bool {
	switch model {
	case "zero-8b":
		return r.BudgetUSD == 100
	case "zero-20b":
		return r.BudgetUSD == 100 || r.DeadlineHours == 6
	}
	return false
}

// solo reports the satisfiable draws the search declines most of the
// time once the fleet prior is armed: resnet-cifar10 at 6 h. The
// scheduler folds a search's probes into the fleet prior only when the
// search succeeds, so after a decline the next search of the family
// starts from whichever prior the other client's last completion
// happened to publish, and outcomes would depend on thread timing.
// cold-search therefore runs these draws alone and untimed after each
// round's timed phase, where the outcome depends only on the round's
// history, and counts their declines as failed operations.
func solo(model string, r requirement) bool {
	return model == "resnet-cifar10" && r.DeadlineHours == 6
}

// clientModels splits the menu models between the two search clients by
// model family (CNN for client 0; RNN, Transformer and sharded
// Transformer for client 1). The fleet prior learns per family, so a
// client's outcomes depend only on its own, sequential history and stay
// deterministic whatever the interleaving of the two clients.
var clientModels = [2][]string{
	{"alexnet-cifar10", "resnet-cifar10", "inception-imagenet"},
	{"charrnn-text", "bert-wiki", "bert-wiki-mxnet", "zero-8b", "zero-20b"},
}

// jobSpec is one search submission: a job identity the daemon's menu
// knows, and the requirement it is submitted with.
type jobSpec struct {
	Key   string // menu key and job name; unique per identity
	Model string // menu model the identity is a copy of
	Req   requirement
}

// searchInputs is everything a search workload submits, per client.
type searchInputs struct {
	menu   map[string]workload.Job
	arming [2][]jobSpec // set-up searches that arm the fleet prior
	solo   [2][]jobSpec // cold-search: run alone after each round (see solo)
	prime  [2][]jobSpec // warm-rerun's untimed first run, in a fixed order
	rounds [][2][]jobSpec
}

// combos lists a client's satisfiable (model, requirement) pairs, less
// the solo ones; with budgetOnly, the budget requirements alone
// (warm-rerun raises budgets).
func combos(client int, budgetOnly bool) []jobSpec {
	var out []jobSpec
	for _, m := range clientModels[client] {
		for _, r := range allRequirements() {
			if !declines(m, r) && !solo(m, r) && (!budgetOnly || r.BudgetUSD > 0) {
				out = append(out, jobSpec{Model: m, Req: r})
			}
		}
	}
	return out
}

// tag is a short form of the requirement for identity names.
func (r requirement) tag() string {
	switch {
	case r.BudgetUSD > 0:
		return fmt.Sprintf("b%g", r.BudgetUSD)
	case r.DeadlineHours > 0:
		return fmt.Sprintf("d%g", r.DeadlineHours)
	default:
		return "u"
	}
}

// newSearchInputs builds the search workloads' inputs. Each client owns
// a catalogue of jobsPerClient[c] identities: whole passes over its
// satisfiable (model, requirement) pairs, one identity per pair and
// pass, the same for every seed. A search's cost depends on its
// identity's measurement noise and, through the fleet prior, on every
// earlier search of its family, so what the seed draws is the order:
// each round submits the client's catalogue in its own seeded order
// (warm-rerun: reruns it, relaxed, after an untimed first run profiled
// it in catalogue order). One unlimited arming search per model comes
// first.
func newSearchInputs(seed int64, rounds int, jobsPerClient [2]int, rerun bool) searchInputs {
	rng := rand.New(rand.NewSource(seed))
	base := sched.DefaultMenu()
	in := searchInputs{menu: make(map[string]workload.Job), rounds: make([][2][]jobSpec, rounds)}
	add := func(js jobSpec, name string) jobSpec {
		js.Key = name
		j := base[js.Model]
		j.Name = name
		in.menu[name] = j
		return js
	}
	for c := range 2 {
		for _, m := range clientModels[c] {
			in.arming[c] = append(in.arming[c], add(jobSpec{Model: m}, m+"-arm"))
			for _, r := range allRequirements() {
				if solo(m, r) && !rerun {
					in.solo[c] = append(in.solo[c], add(jobSpec{Model: m, Req: r}, fmt.Sprintf("%s-%s-solo", m, r.tag())))
				}
			}
		}
		pairs := combos(c, rerun)
		var all []jobSpec
		for pass := 0; len(all) < jobsPerClient[c]; pass++ {
			for _, p := range pairs {
				if len(all) == jobsPerClient[c] {
					break
				}
				all = append(all, add(p, fmt.Sprintf("%s-%s-%d", p.Model, p.Req.tag(), pass)))
			}
		}
		if rerun {
			in.prime[c] = all
		}
		for r := range rounds {
			for _, i := range rng.Perm(len(all)) {
				js := all[i]
				if rerun {
					js.Req = js.Req.relaxed()
				}
				in.rounds[r][c] = append(in.rounds[r][c], js)
			}
		}
	}
	return in
}

// submission is one POST body of the admission stream.
type submission struct {
	Job           string  `json:"job"`
	Tenant        string  `json:"tenant,omitempty"`
	BudgetUSD     float64 `json:"budget_usd,omitempty"`
	DeadlineHours float64 `json:"deadline_hours,omitempty"`
}

func (js jobSpec) submission(client int) submission {
	return submission{
		Job:           js.Key,
		Tenant:        fmt.Sprintf("tenant-%d", client),
		BudgetUSD:     js.Req.BudgetUSD,
		DeadlineHours: js.Req.DeadlineHours,
	}
}

// admitInputs is the durable-admit admission stream, per client: the
// backlog an untimed first run writes, the timed storm, and which
// earlier job each storm POST's follow-up GET reads (an index into the
// client's acknowledged IDs, scaled by how many there are).
type admitInputs struct {
	backlog [2][]submission
	storm   [2][]submission
	getPick [2][]float64 // in [0, 1)
}

// admitTenants is how many tenants the admission stream spreads over.
const admitTenants = 1024

// newAdmitInputs draws the admission stream from the default menu over
// satisfiable requirements and admitTenants tenants.
func newAdmitInputs(seed int64, backlogPerClient, stormPerClient int) admitInputs {
	rng := rand.New(rand.NewSource(seed))
	models := make([]string, 0, 8)
	for k := range sched.DefaultMenu() {
		models = append(models, k)
	}
	sort.Strings(models)
	draw := func() submission {
		for {
			m := models[rng.Intn(len(models))]
			reqs := allRequirements()
			r := reqs[rng.Intn(len(reqs))]
			if declines(m, r) {
				continue
			}
			return submission{
				Job:           m,
				Tenant:        fmt.Sprintf("tenant-%04d", rng.Intn(admitTenants)),
				BudgetUSD:     r.BudgetUSD,
				DeadlineHours: r.DeadlineHours,
			}
		}
	}
	var in admitInputs
	for c := range 2 {
		for range backlogPerClient {
			in.backlog[c] = append(in.backlog[c], draw())
		}
		for range stormPerClient {
			in.storm[c] = append(in.storm[c], draw())
			in.getPick[c] = append(in.getPick[c], rng.Float64())
		}
	}
	return in
}
