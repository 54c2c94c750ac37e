package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mlcd/internal/mlcdsys"
	"mlcd/internal/sched"
)

// admitShards is durable-admit's shard count.
const admitShards = 2

// admitClient is one durable-admit client's record of a POST stream.
type admitClient struct {
	acked   []string // acknowledged IDs, in order
	acks    []time.Duration
	gets    []time.Duration
	refused int // POSTs answered with anything but 202
	badGets int // GETs that failed or found the job not resident
}

// spanEvery samples the storm's spans: a traced storm records every
// spanEvery-th POST and the GET after it, which keeps the span file and
// the tracer's memory small next to the hundreds of thousands of
// requests a run makes.
const spanEvery = 16

// postStream runs the two clients' streams concurrently. With getPick
// set, each POST is followed by one GET of an earlier job of the same
// client. A non-nil tracer records spans for a sample of the requests.
func postStream(d *daemon, subs [2][]submission, getPick [2][]float64, tr *tracer) ([2]admitClient, error) {
	var out [2]admitClient
	var errs [2]error
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &out[c]
			cl.acked = make([]string, 0, len(subs[c]))
			cl.acks = make([]time.Duration, 0, len(subs[c]))
			for i, s := range subs[c] {
				code, v, iv, err := d.post(s)
				if err != nil {
					errs[c] = err
					return
				}
				if code != http.StatusAccepted {
					cl.refused++
				} else {
					cl.acked = append(cl.acked, v.ID)
					cl.acks = append(cl.acks, iv.dur())
				}
				traced := tr != nil && i%spanEvery == 0
				if traced {
					tr.addSpan(0, "http.post", v.ID, iv)
				}
				if getPick[c] == nil || len(cl.acked) == 0 {
					continue
				}
				id := cl.acked[int(getPick[c][i]*float64(len(cl.acked)))]
				code, g, iv, err := d.get(id)
				if err != nil {
					errs[c] = err
					return
				}
				cl.gets = append(cl.gets, iv.dur())
				if code != http.StatusOK || terminal(g.Status) {
					cl.badGets++
				}
				if traced {
					tr.addSpan(0, "http.get", id, iv)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// runAdmit is one durable-admit pass. Every search is held at its first
// probe, so admission, ring routing, the shard lock and the journal's
// write path do all the work. An untimed first run writes a backlog and
// is killed. The storm then runs in many short rounds. Each round
// restores that journal, restarts the daemon over it (the set-up: the
// journal's read path), and runs its share of the storm: POSTs, each
// followed by one GET of an earlier job of the same client. Short rounds
// keep resident memory small, and each end-to-end figure is the median
// of the rounds' values, so a burst of host contention moves only the
// few rounds it overlaps.
func runAdmit(pc passConfig) (passResult, error) {
	res := newPassResult(pc.name)
	nRounds, perRound := pc.admitPlan()
	in := newAdmitInputs(pc.seed, int(float64(perRound)*admitBacklogShare), perRound*nRounds)
	pristine, err := pc.journalDir("admit-backlog")
	if err != nil {
		return res, err
	}
	dir, err := pc.journalDir("admit")
	if err != nil {
		return res, err
	}
	resident := 2 * (len(in.backlog[0]) + perRound)
	// Each shard's queue holds its share of a round's residents with 50%
	// headroom for hash skew, so no submission is refused for space.
	cfg := daemonConfig{dir: pristine, shards: admitShards, queue: resident*3/(2*admitShards) + daemonQueue, hold: true}

	t0 := time.Now()
	d, err := startDaemon(cfg)
	if err != nil {
		return res, err
	}
	backlog, err := postStream(d, in.backlog, [2][]float64{}, nil)
	d.kill()
	if err != nil {
		return res, err
	}
	res.note("backlog: %d POSTs journaled in %.3fs by an untimed first run", 2*len(in.backlog[0]), time.Since(t0).Seconds())

	cfg.dir, cfg.tr = dir, pc.tr
	m := admitMeasures{tr: pc.tr}
	var took []time.Duration
	var wall time.Duration
	var acks, gets []float64 // every round's, for the diagnostics
	per := map[string][]float64{}
	rounds := make([][2]admitClient, nRounds)
	lost := 0
	for r := range rounds {
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		if err := copyDir(pristine, dir); err != nil {
			return res, fmt.Errorf("restoring the backlog journal: %w", err)
		}
		var storm [2][]submission
		var picks [2][]float64
		for c := range 2 {
			storm[c] = in.storm[c][r*perRound : (r+1)*perRound]
			picks[c] = in.getPick[c][r*perRound : (r+1)*perRound]
		}
		settle()
		fs0 := m.fs()
		t0 := time.Now()
		if d, err = startDaemon(cfg); err != nil {
			return res, err
		}
		took = append(took, time.Since(t0))
		m.setup = m.fs().sub(fs0)
		settle()
		m.begin(d)
		t0 = time.Now()
		cls, err := postStream(d, storm, picks, pc.tr)
		rw := time.Since(t0)
		wall += rw
		if err != nil {
			d.kill()
			return res, err
		}
		m.end(d)

		var acked []string
		var ra, rg []float64
		for c, cl := range cls {
			acked = append(acked, backlog[c].acked...)
			acked = append(acked, cl.acked...)
			for _, a := range cl.acks {
				ra = append(ra, ms(a))
			}
			for _, g := range cl.gets {
				rg = append(rg, ms(g))
			}
			res.attempted += len(storm[c]) + len(cl.gets)
			res.failed += cl.refused + cl.badGets
		}
		acks, gets = append(acks, ra...), append(gets, rg...)
		per["ops_per_s"] = append(per["ops_per_s"], float64(len(ra))/rw.Seconds())
		per["op_ms_p50"] = append(per["op_ms_p50"], quantile(ra, 0.5))
		per["op_ms_p90"] = append(per["op_ms_p90"], quantile(ra, 0.9))
		per["get_ms_p50"] = append(per["get_ms_p50"], quantile(rg, 0.5))
		per["get_ms_p90"] = append(per["get_ms_p90"], quantile(rg, 0.9))
		isResident := make(map[string]bool, len(acked))
		for _, id := range acked {
			j, ok := d.srv.Plane().Get(id)
			isResident[id] = ok && (j.Status == sched.StatusQueued || j.Status == sched.StatusRunning)
		}
		d.kill()
		lost += checkAdmitted(&res, acked, isResident, dir)
		rounds[r] = cls
	}
	res.failed += lost
	if pc.tr != nil {
		checkOutside(&res, pc.tr)
	}

	res.e2e = map[string]float64{
		"setup_s":     medianSetup(took),
		"ops_per_s":   quantile(per["ops_per_s"], 0.5),
		"op_ms_p50":   quantile(per["op_ms_p50"], 0.5),
		"op_ms_p90":   quantile(per["op_ms_p90"], 0.5),
		"rss_peak_mb": peakRSSMB(),
		"ok_share":    ratio(float64(res.attempted-res.failed), float64(res.attempted)),
	}
	res.layers["outcome.failed_share"] = ratio(float64(res.failed), float64(res.attempted))
	res.layers["mlcdapi.get_us_p50"] = 1000 * quantile(per["get_ms_p50"], 0.5)
	res.layers["mlcdapi.get_us_p90"] = 1000 * quantile(per["get_ms_p90"], 0.5)
	res.note("%d rounds: %d POSTs + %d GETs in %.3fs; %d acked, %d lost; set-ups %.3f s",
		nRounds, 2*perRound*nRounds, len(gets), wall.Seconds(), len(acks), lost, durationsSec(took))
	res.note("per round: acks/s %.0f", per["ops_per_s"])
	res.note("per round: ack p50 %.4f ms", per["op_ms_p50"])
	res.note("per round: ack p90 %.4f ms", per["op_ms_p90"])
	res.note("pooled: ack_ms_p99=%.4f get_ms_p50=%.4f get_ms_p99=%.4f (diagnostic)", quantile(acks, 0.99), quantile(gets, 0.5), quantile(gets, 0.99))
	if pc.tr != nil {
		if err := admitLayers(&res, pc, in, rounds, m); err != nil {
			return res, err
		}
	}
	return res, nil
}

// admitMeasures accumulates the traced pass's counters over the storms
// of every round; each round's daemon has its own /metrics registry.
type admitMeasures struct {
	tr            *tracer
	setup         fsCounts // the last round's set-up
	storm         fsCounts
	appendSec     float64 // mlcd_sched_journal_append_seconds _sum
	appends       float64 // and _count
	fsBefore      fsCounts
	metricsBefore map[string]float64
}

func (m *admitMeasures) fs() fsCounts {
	if m.tr == nil {
		return fsCounts{}
	}
	return m.tr.fs.counts()
}

func (m *admitMeasures) begin(d *daemon) {
	if m.tr != nil {
		m.metricsBefore, m.fsBefore = d.scrape(), m.fs()
	}
}

func (m *admitMeasures) end(d *daemon) {
	if m.tr == nil {
		return
	}
	after := d.scrape()
	m.storm = m.storm.add(m.fs().sub(m.fsBefore))
	m.appendSec += delta(m.metricsBefore, after, "mlcd_sched_journal_append_seconds_sum")
	m.appends += delta(m.metricsBefore, after, "mlcd_sched_journal_append_seconds_count")
}

// copyDir copies a journal directory tree (files and subdirectories).
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyDir(from, to); err != nil {
				return err
			}
			continue
		}
		b, err := os.ReadFile(from)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkAdmitted is durable-admit's correctness check: every ID the
// daemon acknowledged (backlog and storm) must be resident after the
// storm and present in a final sched.ReplaySegmented of its shard's
// directory. It returns how many acknowledged jobs were lost.
func checkAdmitted(res *passResult, acked []string, resident map[string]bool, dir string) int {
	journaled := make(map[string]bool, len(acked))
	for i := range admitShards {
		st, _, err := sched.ReplaySegmented(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			res.problem("replaying shard %d: %v", i, err)
			continue
		}
		for _, s := range st.Subs {
			journaled[s.ID] = true
		}
	}
	lost := 0
	for _, id := range acked {
		if resident[id] && journaled[id] {
			continue
		}
		lost++
		if lost <= 10 {
			res.problem("acknowledged job %s lost: resident=%t journaled=%t", id, resident[id], journaled[id])
		}
	}
	if lost > 10 {
		res.problem("%d acknowledged jobs lost in all", lost)
	}
	return lost
}

// admitLayers derives durable-admit's per-layer metrics. The admission
// stream's first submissions are replayed through ServeHTTP,
// Plane.Submit, and journaled and journal-less Scheduler.Submit, all on
// 2-shard planes, and each layer's self time is the difference of
// neighbouring p50s.
func admitLayers(res *passResult, pc passConfig, in admitInputs, rounds [][2]admitClient, m admitMeasures) error {
	acks := 0.0
	perShard := map[string]float64{}
	for _, cls := range rounds {
		for _, cl := range cls {
			acks += float64(len(cl.acked))
			for _, id := range cl.acked {
				perShard[strings.SplitN(id, "-", 2)[0]]++
			}
		}
	}
	maxShard := 0.0
	for _, n := range perShard {
		maxShard = max(maxShard, n)
	}
	fsd := m.storm
	l := res.layers
	l["shardplane.shard_skew"] = ratio(maxShard, acks/admitShards)
	l["sched.append_us_mean"] = 1e6 * ratio(m.appendSec, m.appends)
	l["faultfs.syncs_per_ack"] = ratio(float64(fsd.syncs), acks)
	l["faultfs.bytes_per_ack"] = ratio(float64(fsd.writeBytes), acks)
	l["faultfs.sync_us_mean"] = ratio(float64(fsd.syncNS)/1e3, float64(fsd.syncs))
	l["faultfs.write_us_mean"] = ratio(float64(fsd.writeNS)/1e3, float64(fsd.writes))
	l["faultfs.segments_opened"] = float64(fsd.creates) / float64(len(rounds))
	l["faultfs.replay_read_mb"] = float64(m.setup.readBytes) / 1e6
	l["faultfs.replay_read_ms"] = float64(m.setup.readNS) / 1e6

	// The layer replay: the stream's first submissions, two clients,
	// POSTs only.
	var prefix [2][]submission
	for c := range 2 {
		prefix[c] = in.storm[c][:min(len(in.storm[c]), layerReplayPerClient)]
	}
	p50, err := replayLayers(pc, prefix)
	if err != nil {
		return err
	}
	l["mlcdapi.self_us_p50"] = p50[0] - p50[1]
	l["shardplane.self_us_p50"] = p50[1] - p50[2]
	l["sched.journal_us_p50"] = p50[2] - p50[3]
	res.note("layer replay p50 (us): ServeHTTP %.3f, Plane.Submit %.3f, Scheduler.Submit journaled %.3f, journal-less %.3f",
		p50[0], p50[1], p50[2], p50[3])
	return nil
}

// layerReplayPerClient bounds each client's share of a layer replay.
const layerReplayPerClient = 10000

// submitFunc submits one job through one layer and times that layer's call.
type submitFunc func(submission) (time.Duration, error)

func (s submission) requirements() mlcdsys.Requirements {
	return requirement{BudgetUSD: s.BudgetUSD, DeadlineHours: s.DeadlineHours}.sched()
}

// replayLayers replays subs against four submit paths of two fresh
// 2-shard planes with every search held: ServeHTTP, Plane.Submit and the
// tenant's home Scheduler.Submit of a journaled plane, and the home
// Scheduler.Submit of a journal-less one. Submissions rotate through the
// four paths, so every path sees the same moments of host contention and
// the differences of their p50s (in µs) isolate each layer.
func replayLayers(pc passConfig, subs [2][]submission) ([4]float64, error) {
	var p50 [4]float64
	dir, err := pc.journalDir("layers")
	if err != nil {
		return p50, err
	}
	cfg := daemonConfig{hold: true, shards: admitShards, queue: 2*len(subs[0]) + daemonQueue}
	bare, err := startDaemon(cfg)
	if err != nil {
		return p50, err
	}
	defer bare.kill()
	cfg.dir = dir
	jd, err := startDaemon(cfg)
	if err != nil {
		return p50, err
	}
	defer jd.kill()
	home := func(d *daemon) submitFunc {
		return func(s submission) (time.Duration, error) {
			p := d.srv.Plane()
			sh := p.Shard(p.ShardFor(s.Tenant))
			req := s.requirements()
			t0 := time.Now()
			_, err := sh.Submit(s.Job, s.Tenant, req)
			return time.Since(t0), err
		}
	}
	paths := [4]submitFunc{
		func(s submission) (time.Duration, error) {
			code, _, iv, err := jd.post(s)
			if err == nil && code != http.StatusAccepted {
				err = fmt.Errorf("POST → %d", code)
			}
			return iv.dur(), err
		},
		func(s submission) (time.Duration, error) {
			req := s.requirements()
			t0 := time.Now()
			_, err := jd.srv.Plane().Submit(s.Job, s.Tenant, req)
			return time.Since(t0), err
		},
		home(jd),
		home(bare),
	}
	var lat [2][4][]float64
	var errs [2]error
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range subs[c] {
				k := i % len(paths)
				el, err := paths[k](s)
				if err != nil {
					errs[c] = fmt.Errorf("layer replay, path %d: %w", k, err)
					return
				}
				lat[c][k] = append(lat[c][k], us(el))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return p50, err
		}
	}
	for k := range paths {
		p50[k] = quantile(append(lat[0][k], lat[1][k]...), 0.5)
	}
	return p50, nil
}
