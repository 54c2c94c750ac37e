package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// pollEvery is how often a search client polls its job's status.
const pollEvery = time.Millisecond

// pickTimeout bounds one job's submit → terminal wait.
const pickTimeout = 2 * time.Minute

// jobOutcome is one search client's record of one submission.
type jobOutcome struct {
	spec   jobSpec
	code   int     // POST status
	view   jobView // last status read
	submit time.Time
	posted time.Time // POST returned
	seen   time.Time // terminal status first read
	err    error
}

func (o jobOutcome) done() bool { return o.code == http.StatusAccepted && o.view.Status == "done" }

// runClients runs each client's jobs as a closed loop — submit, poll
// until terminal, submit the next — with the two clients concurrent.
func runClients(d *daemon, jobs [2][]jobSpec) [2][]jobOutcome {
	out, _ := runClientsTimed(d, jobs)
	return out
}

// runClientsTimed is runClients that also reports each client's wall time.
func runClientsTimed(d *daemon, jobs [2][]jobSpec) ([2][]jobOutcome, [2]time.Duration) {
	var out [2][]jobOutcome
	var walls [2]time.Duration
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			out[c] = make([]jobOutcome, 0, len(jobs[c]))
			for _, js := range jobs[c] {
				out[c] = append(out[c], runJob(d, c, js))
			}
			walls[c] = time.Since(t0)
		}()
	}
	wg.Wait()
	return out, walls
}

func runJob(d *daemon, client int, js jobSpec) jobOutcome {
	o := jobOutcome{spec: js, submit: time.Now()}
	code, v, _, err := d.post(js.submission(client))
	o.posted, o.code, o.view, o.err = time.Now(), code, v, err
	if err != nil || code != http.StatusAccepted {
		return o
	}
	deadline := o.submit.Add(pickTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(pollEvery)
		code, v, _, err := d.get(o.view.ID)
		if err != nil || code != http.StatusOK {
			o.err = fmt.Errorf("GET %s: status %d: %v", o.view.ID, code, err)
			return o
		}
		o.view.Status, o.view.Error, o.view.Report = v.Status, v.Error, v.Report
		if terminal(v.Status) {
			o.seen = time.Now()
			return o
		}
	}
	return o
}

// checkOutcome is the search workloads' correctness check: the job
// reached a terminal status and, when done, its report reconciles —
// ProfileCost + TrainCost = TotalCost (and the same for hours), with
// Satisfied consistent with the requirement. A refused or declined job
// is a failed operation, not a broken check.
func checkOutcome(o jobOutcome) error {
	if o.err != nil {
		return o.err
	}
	if o.code != http.StatusAccepted {
		return nil
	}
	if !terminal(o.view.Status) {
		return fmt.Errorf("job %s (%s) still %q after %s", o.view.ID, o.spec.Key, o.view.Status, pickTimeout)
	}
	if o.view.Status != "done" {
		return nil
	}
	r := o.view.Report
	if r == nil {
		return fmt.Errorf("job %s is done without a report", o.view.ID)
	}
	if !near(r.ProfileUSD+r.TrainUSD, r.TotalUSD) {
		return fmt.Errorf("job %s: profile $%g + train $%g != total $%g", o.view.ID, r.ProfileUSD, r.TrainUSD, r.TotalUSD)
	}
	if !near(r.ProfileHours+r.TrainHours, r.TotalHours) {
		return fmt.Errorf("job %s: profile %gh + train %gh != total %gh", o.view.ID, r.ProfileHours, r.TrainHours, r.TotalHours)
	}
	want := true
	switch req := o.spec.Req; {
	case req.BudgetUSD > 0:
		want = r.TotalUSD <= req.BudgetUSD
	case req.DeadlineHours > 0:
		want = r.TotalHours <= req.DeadlineHours
	}
	if r.Satisfied != want {
		return fmt.Errorf("job %s: satisfied=%t but total $%g in %gh against %s", o.view.ID, r.Satisfied, r.TotalUSD, r.TotalHours, o.spec.Req)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// joinDigests folds the rounds' digests into one.
func joinDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest hashes every job's identity, requirement, pick, profile $,
// total $ and status, in submission order.
func digest(outs [2][]jobOutcome) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, cl := range outs {
		for _, o := range cl {
			best, prof, total := "", "", ""
			if r := o.view.Report; r != nil {
				best, prof, total = r.Best, f(r.ProfileUSD), f(r.TotalUSD)
			}
			fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d:%s\n", o.spec.Key, o.spec.Req, best, prof, total, o.code, o.view.Status)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// warmRestarts is how many times warm-rerun sets up per round.
const warmRestarts = 10

// runSearch is one pass of cold-search (warm=false) or warm-rerun. It
// repeats its timed phase in rounds, each on a fresh daemon (cold-search)
// or over a fresh copy of the primed journal (warm-rerun), and each in
// another seeded order; the end-to-end figures pool every round, so a
// run averages the order's effect over several orders.
//
// cold-search: each round's set-up starts the daemon over an empty
// journal and runs one arming search per menu model, so the fleet prior
// is armed from the first timed job; the timed phase searches
// identities the daemon has never seen. After it, the solo draws run
// alone and untimed (see solo).
//
// warm-rerun: an untimed first run profiles every identity once (its
// cold requirement). Each round restores that journal and restarts the
// daemon over it (the set-up); the timed phase reruns each identity
// once with the requirement relaxed, warm-started from the replayed
// cache.
func runSearch(pc passConfig, warm bool) (passResult, error) {
	res := newPassResult(pc.name)
	shape := coldShape
	if warm {
		shape = warmShape
	}
	rounds, perRound := pc.searchPlan(shape, warm)
	in := newSearchInputs(pc.seed, rounds, perRound, warm)
	dir, err := pc.journalDir("journal")
	if err != nil {
		return res, err
	}
	primed := ""
	if warm {
		if primed, err = pc.journalDir("primed"); err != nil {
			return res, err
		}
		if err := prime(&res, primed, in); err != nil {
			return res, err
		}
	}

	cfg := daemonConfig{menu: in.menu, dir: dir, tr: pc.tr}
	restarts := 1
	if warm {
		restarts = warmRestarts
	}
	var took []time.Duration
	var wall time.Duration
	var digests []string
	var allPicks []float64
	per := map[string][]float64{} // per-round figures, for the diagnostics
	var profUSD, totUSD, totH []float64
	var layers searchLayers
	for r := range rounds {
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		if warm {
			if err := copyDir(primed, dir); err != nil {
				return res, fmt.Errorf("restoring the primed journal: %w", err)
			}
		}
		// warm-rerun's set-up is a replay of a few thousand records; it
		// restarts warmRestarts times per round, each from a collected
		// heap, so setup_s is a median of enough samples to stay clear of
		// timer and garbage-collection noise.
		for range restarts - 1 {
			settle()
			t0 := time.Now()
			d, err := startDaemon(cfg)
			if err != nil {
				return res, err
			}
			took = append(took, time.Since(t0))
			d.drain()
		}
		settle()
		t0 := time.Now()
		d, err := startDaemon(cfg)
		if err != nil {
			return res, err
		}
		if !warm {
			for _, cl := range runClients(d, in.arming) {
				for _, o := range cl {
					if !o.done() {
						res.problem("arming job %s (%s) %s: %v %s", o.view.ID, o.spec.Key, o.view.Status, o.err, o.view.Error)
					}
				}
			}
		}
		took = append(took, time.Since(t0))

		settle()
		var before map[string]float64
		var fs0 fsCounts
		if pc.tr != nil {
			pc.tr.forgetJobs()
			before, fs0 = d.scrape(), pc.tr.fs.counts()
		}
		t0 = time.Now()
		outs, walls := runClientsTimed(d, in.rounds[r])
		rw := time.Since(t0)
		wall += rw
		after := d.scrape()
		var fs1 fsCounts
		if pc.tr != nil {
			fs1 = pc.tr.fs.counts()
		}
		solo := runClients(d, in.solo)
		d.drain()
		if n := after[`mlcd_cluster_launches_total{result="refused"}`]; n > 0 {
			res.note("round %d: %g probe launches refused by the cloud quota", r, n)
		}

		var rp []float64
		for i, set := range [][2][]jobOutcome{outs, solo} {
			for _, cl := range set {
				for _, o := range cl {
					res.attempted++
					if err := checkOutcome(o); err != nil {
						res.problem("%v", err)
					}
					if !o.done() {
						res.failed++
						res.note("round %d failed: %s %s → %d %s %s", r, o.spec.Key, o.spec.Req, o.code, o.view.Status, o.view.Error)
						continue
					}
					if i == 0 { // solo jobs are untimed
						rp = append(rp, ms(o.seen.Sub(o.submit)))
					}
					profUSD = append(profUSD, o.view.Report.ProfileUSD)
					totUSD = append(totUSD, o.view.Report.TotalUSD)
					totH = append(totH, o.view.Report.TotalHours)
				}
			}
		}
		digests = append(digests, digest(outs), digest(solo))
		allPicks = append(allPicks, rp...)
		per["ops_per_s"] = append(per["ops_per_s"], float64(len(rp))/rw.Seconds())
		per["op_ms_p50"] = append(per["op_ms_p50"], quantile(rp, 0.5))
		per["op_ms_p90"] = append(per["op_ms_p90"], quantile(rp, 0.9))
		res.note("round %d: %d jobs in %.3fs (clients %.3fs, %.3fs); %d picks",
			r, len(outs[0])+len(outs[1]), rw.Seconds(), walls[0].Seconds(), walls[1].Seconds(), len(rp))
		if pc.tr != nil {
			layers.add(&res, pc.tr, outs, before, after, fs1.sub(fs0))
		}
	}

	res.digest = joinDigests(digests)
	if !tailOK(len(allPicks), 0.9) {
		res.note("only %d picks, so p90 keeps fewer than 10 samples beyond it", len(allPicks))
	}
	res.e2e = map[string]float64{
		"setup_s":     medianSetup(took),
		"ops_per_s":   float64(len(allPicks)) / wall.Seconds(),
		"op_ms_p50":   quantile(allPicks, 0.5),
		"op_ms_p90":   quantile(allPicks, 0.9),
		"rss_peak_mb": peakRSSMB(),
		"ok_share":    ratio(float64(res.attempted-res.failed), float64(res.attempted)),
	}
	res.note("per round: jobs/s %.3f, pick p50 %.2f p90 %.2f ms",
		per["ops_per_s"], per["op_ms_p50"], per["op_ms_p90"])
	res.note("set-ups %.3f s", durationsSec(took))
	res.layers["outcome.profile_usd_per_job"] = mean(profUSD)
	res.layers["outcome.total_usd_per_job"] = mean(totUSD)
	res.layers["outcome.total_h_per_job"] = mean(totH)
	res.layers["outcome.failed_share"] = ratio(float64(res.failed), float64(res.attempted))
	res.note("outcome: profile $%.4f/job, total $%.4f/job, %.4f h/job, failed_share %.4f",
		mean(profUSD), mean(totUSD), mean(totH), res.layers["outcome.failed_share"])
	if pc.tr != nil {
		layers.finish(&res)
		checkOutside(&res, pc.tr)
	}
	return res, nil
}

// prime is warm-rerun's untimed first run: it profiles every identity
// once, with its cold requirement, into the journal at dir.
func prime(res *passResult, dir string, in searchInputs) error {
	t0 := time.Now()
	d, err := startDaemon(daemonConfig{menu: in.menu, dir: dir})
	if err != nil {
		return err
	}
	outs := runClients(d, in.arming)
	for c, cl := range runClients(d, in.prime) {
		outs[c] = append(outs[c], cl...)
	}
	d.drain()
	for _, cl := range outs {
		for _, o := range cl {
			if err := checkOutcome(o); err != nil {
				res.problem("prime: %v", err)
			} else if !o.done() {
				res.problem("prime: job %s (%s, %s) %s: %s", o.view.ID, o.spec.Key, o.spec.Req, o.view.Status, o.view.Error)
			}
		}
	}
	res.note("prime: %d identities profiled in %.3fs by an untimed first run", len(in.prime[0])+len(in.prime[1]), time.Since(t0).Seconds())
	return nil
}

// searchLayers accumulates the search workloads' per-layer figures over
// the traced pass's rounds: spans per job, the program's /metrics
// deltas over each timed phase, and the timing filesystem's counters.
type searchLayers struct {
	searchMS, warmObs, probes, probeMS, waits, fins []float64
	jobs                                            float64
	metrics                                         map[string]float64 // summed /metrics deltas
	syncs                                           int64
}

// add folds one round in. Each done job's pick splits into POST, queue
// wait (POST return → search start), search and finalize (search return
// → terminal status seen). Those stages tile the pick by construction,
// so what the check can establish is the search itself: every done job
// must have exactly one recorded Search, inside its pick.
func (sl *searchLayers) add(res *passResult, tr *tracer, outs [2][]jobOutcome, before, after map[string]float64, fsd fsCounts) {
	for _, cl := range outs {
		for _, o := range cl {
			if !o.done() {
				continue
			}
			ss := tr.searchesOf(o.spec.Key)
			if len(ss) != 1 {
				res.problem("job %s: %d searches recorded, want exactly one", o.view.ID, len(ss))
				continue
			}
			s := ss[0]
			if s.start.Before(o.submit) || s.end.After(o.seen) {
				res.problem("job %s: its search ran outside its pick (from %s before submit to %s after it was seen done)",
					o.view.ID, o.submit.Sub(s.start), s.end.Sub(o.seen))
				continue
			}
			sl.jobs++
			wait := max(0, s.start.Sub(o.posted))
			fin := o.seen.Sub(s.end)
			root := tr.addSpan(0, "client.pick", o.view.ID, interval{o.submit, o.seen})
			tr.addSpan(root, "http.post", o.view.ID, interval{o.submit, o.posted})
			tr.addSpan(root, "sched.queue_wait", o.view.ID, interval{o.posted, o.posted.Add(wait)})
			sid := tr.addSpan(root, "core.search", o.view.ID, s.interval)
			tr.addSpan(root, "sched.finalize", o.view.ID, interval{s.end, o.seen})
			sl.searchMS = append(sl.searchMS, ms(s.dur()))
			sl.warmObs = append(sl.warmObs, float64(s.warm))
			sl.waits = append(sl.waits, ms(wait))
			sl.fins = append(sl.fins, ms(fin))
			var pm float64
			ps := tr.probesOf(o.spec.Key)
			for _, p := range ps {
				tr.addSpan(sid, "profiler.probe", o.view.ID, p)
				pm += ms(p.dur())
			}
			sl.probes = append(sl.probes, float64(len(ps)))
			sl.probeMS = append(sl.probeMS, pm)
		}
	}
	if sl.metrics == nil {
		sl.metrics = map[string]float64{}
	}
	for _, name := range []string{
		"gp_refactor_seconds_count", "gp_refactor_seconds_sum",
		"search_score_seconds_count", "search_score_seconds_sum",
		"mlcd_sched_cache_hits_total", "mlcd_sched_cache_misses_total",
		"mlcd_sched_fleet_prior_armed_total",
	} {
		sl.metrics[name] += delta(before, after, name)
	}
	sl.syncs += fsd.syncs
}

func (sl *searchLayers) finish(res *passResult) {
	n, m := sl.jobs, sl.metrics
	hits, misses := m["mlcd_sched_cache_hits_total"], m["mlcd_sched_cache_misses_total"]
	l := res.layers
	l["core.search_ms_per_job"] = mean(sl.searchMS)
	l["core.warm_obs_per_job"] = mean(sl.warmObs)
	l["gp.refits_per_job"] = ratio(m["gp_refactor_seconds_count"], n)
	l["gp.refit_ms_per_job"] = 1000 * ratio(m["gp_refactor_seconds_sum"], n)
	l["core.sweeps_per_job"] = ratio(m["search_score_seconds_count"], n)
	l["core.sweep_ms_per_job"] = 1000 * ratio(m["search_score_seconds_sum"], n)
	l["profiler.probes_per_job"] = mean(sl.probes)
	l["profiler.probe_ms_per_job"] = mean(sl.probeMS)
	l["sched.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["fleetprior.armed_share"] = ratio(m["mlcd_sched_fleet_prior_armed_total"], n)
	l["sched.queue_wait_ms_p50"] = quantile(sl.waits, 0.5)
	l["sched.finalize_ms_p50"] = quantile(sl.fins, 0.5)
	l["faultfs.syncs_per_job"] = ratio(float64(sl.syncs), n)
}
