package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload at about 1% of its full size.
func tiny(t *testing.T, workload string, seed int64, trace bool) report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: seed, seconds: 20, trace: trace, scale: 0.01, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: run failed its checks:\n%s", workload, strings.Join(rep.lines, "\n"))
	}
	if rep.Attempted < 1 {
		t.Fatalf("%s: attempted %d operations", workload, rep.Attempted)
	}
	return rep
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	better := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.lower) {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark reports %s %s %s", i, got.Name, got.Unit, got.Better, m.name, m.unit, better(m.lower))
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.lower) {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark reports %s %s %s", i, got.Name, got.Unit, got.Better, m.name, m.unit, better(m.lower))
		}
	}
}

// checkMetrics asserts the result carries exactly the listed metrics, each
// with its unit, and prints each of them by name.
func checkMetrics(t *testing.T, workload string, rep report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(defs))
	}
	text := strings.Join(rep.lines, "\n")
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.name, m, d.unit)
		}
		if !strings.Contains(text, "metric "+d.name+" = ") {
			t.Errorf("%s: metric %s not printed", workload, d.name)
		}
	}
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep := tiny(t, w, 1, false)
			checkMetrics(t, w, rep, endToEnd)
			for _, d := range endToEnd {
				if v := rep.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
				}
			}
			traced := tiny(t, w, 1, true)
			checkMetrics(t, w, traced, perLayer)
		})
	}
}

func TestSeedChangesInputsNotMetrics(t *testing.T) {
	a, b := newSearchInputs(1, 2, [2]int{20, 32}, true), newSearchInputs(2, 2, [2]int{20, 32}, true)
	if !reflect.DeepEqual(a.menu, b.menu) || !reflect.DeepEqual(a.prime, b.prime) {
		t.Error("search identities should be the same catalogue for every seed")
	}
	if reflect.DeepEqual(a.rounds, b.rounds) {
		t.Error("seeds 1 and 2 submit the search catalogue in the same order")
	}
	if !reflect.DeepEqual(newSearchInputs(1, 2, [2]int{20, 32}, false), newSearchInputs(1, 2, [2]int{20, 32}, false)) {
		t.Error("one seed generated two different search inputs")
	}
	if reflect.DeepEqual(newAdmitInputs(1, 10, 10), newAdmitInputs(2, 10, 10)) {
		t.Error("seeds 1 and 2 generated the same admission stream")
	}
	r1, r2 := tiny(t, "cold-search", 1, false), tiny(t, "cold-search", 2, false)
	if !reflect.DeepEqual(sortedKeys(r1.Metrics), sortedKeys(r2.Metrics)) {
		t.Errorf("metric sets differ across seeds: %v vs %v", sortedKeys(r1.Metrics), sortedKeys(r2.Metrics))
	}
}

func TestJournalsStayInRAMDir(t *testing.T) {
	ram, err := ramDir()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(ram)
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() && !within("/dev/shm", ram) {
		t.Errorf("journal directory %s is not on /dev/shm", ram)
	}
	pc := passConfig{name: "p", ram: ram}
	for _, kind := range []string{"journal", "primed", "admit", "admit-backlog", "layers"} {
		dir, err := pc.journalDir(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !within(ram, dir) {
			t.Errorf("%s journal %s is outside %s", kind, dir, ram)
		}
	}
	// The traced runs' filesystem hook fails the run for any journal
	// file opened for writing outside the RAM-backed directory.
	for _, w := range []string{"cold-search", "durable-admit"} {
		tiny(t, w, 3, true)
	}
	tr := newTracer(ram)
	f, err := tr.fs.OpenFile(filepath.Join(t.TempDir(), "stray"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	var res passResult
	checkOutside(&res, tr)
	if len(res.problems) != 1 {
		t.Errorf("a journal file outside the RAM directory raised %d problems, want 1", len(res.problems))
	}
}

func TestCheckOutcomeFires(t *testing.T) {
	good := jobOutcome{
		spec: jobSpec{Key: "k", Req: requirement{BudgetUSD: 100}},
		code: http.StatusAccepted,
		view: jobView{ID: "job-0001", Status: "done", Report: &reportView{
			Satisfied: true, ProfileUSD: 10, TrainUSD: 20, TotalUSD: 30,
			ProfileHours: 1, TrainHours: 2, TotalHours: 3,
		}},
	}
	if err := checkOutcome(good); err != nil {
		t.Fatalf("a reconciled report failed the check: %v", err)
	}
	cases := map[string]func(o *jobOutcome){
		"cost does not add up":   func(o *jobOutcome) { o.view.Report.ProfileUSD = 11 },
		"hours do not add up":    func(o *jobOutcome) { o.view.Report.TotalHours = 4 },
		"satisfied over budget":  func(o *jobOutcome) { o.spec.Req.BudgetUSD = 20 },
		"unsatisfied in budget":  func(o *jobOutcome) { o.view.Report.Satisfied = false },
		"never terminal":         func(o *jobOutcome) { o.view.Status = "running" },
		"done without report":    func(o *jobOutcome) { o.view.Report = nil },
		"deadline misjudged":     func(o *jobOutcome) { o.spec.Req = requirement{DeadlineHours: 2} },
		"unlimited unsatisfied":  func(o *jobOutcome) { o.spec.Req = requirement{}; o.view.Report.Satisfied = false },
		"status poll went wrong": func(o *jobOutcome) { o.err = os.ErrDeadlineExceeded },
	}
	for name, mutate := range cases {
		o := good
		rep := *good.view.Report
		o.view.Report = &rep
		mutate(&o)
		if checkOutcome(o) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCheckAdmittedFires(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := startDaemon(daemonConfig{dir: dir, shards: admitShards, hold: true})
	if err != nil {
		t.Fatal(err)
	}
	subs := newAdmitInputs(1, 5, 0).backlog
	cls, err := postStream(d, subs, [2][]float64{}, nil)
	d.kill()
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	resident := map[string]bool{}
	for _, cl := range cls {
		for _, id := range cl.acked {
			acked = append(acked, id)
			resident[id] = true
		}
	}
	if len(acked) != 10 {
		t.Fatalf("acked %d of 10", len(acked))
	}
	var ok passResult
	if lost := checkAdmitted(&ok, acked, resident, dir); lost != 0 || len(ok.problems) != 0 {
		t.Fatalf("a fully journaled storm lost %d: %v", lost, ok.problems)
	}
	var missing passResult
	if lost := checkAdmitted(&missing, append(acked, "s1-job-9999"), map[string]bool{"s1-job-9999": true}, dir); lost != len(acked)+1 {
		t.Errorf("an unjournaled ack and %d non-resident acks counted %d lost", len(acked), lost)
	}
	if len(missing.problems) == 0 {
		t.Error("lost acknowledgements raised no problem")
	}
}

func TestSearchPlacementCheckFires(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	o := jobOutcome{
		spec: jobSpec{Key: "k"}, code: http.StatusAccepted,
		view:   jobView{ID: "job-0001", Status: "done"},
		submit: at(0), posted: at(1), seen: at(10),
	}
	cases := map[string]struct {
		searches []interval
		problems int
	}{
		"inside the pick":     {[]interval{{at(2), at(8)}}, 0},
		"no search recorded":  {nil, 1},
		"two searches":        {[]interval{{at(2), at(4)}, {at(5), at(8)}}, 1},
		"started before POST": {[]interval{{t0.Add(-time.Millisecond), at(8)}}, 1},
		"ended after seen":    {[]interval{{at(2), at(11)}}, 1},
	}
	for name, c := range cases {
		tr := newTracer(t.TempDir())
		for _, iv := range c.searches {
			tr.searches["k"] = append(tr.searches["k"], searchRec{interval: iv})
		}
		var res passResult
		var sl searchLayers
		sl.add(&res, tr, [2][]jobOutcome{{o}}, nil, nil, fsCounts{})
		if len(res.problems) != c.problems {
			t.Errorf("%s: %d problems %v, want %d", name, len(res.problems), res.problems, c.problems)
		}
	}
}

func TestQuantileAndExposition(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 5 {
		t.Errorf("p90 = %v, want 5", q)
	}
	m := parseExposition([]byte("# TYPE c counter\nc{shard=\"0\"} 2\nc{shard=\"1\"} 3\nh_sum 1.5\n"))
	if m["c"] != 5 || m[`c{shard="1"}`] != 3 || m["h_sum"] != 1.5 {
		t.Errorf("parsed %v", m)
	}
}

func TestDaemonSurvivesKillWithHeldSearches(t *testing.T) {
	d, err := startDaemon(daemonConfig{dir: filepath.Join(t.TempDir(), "j"), hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _, err := d.post(submission{Job: "resnet-cifar10", BudgetUSD: 100}); err != nil || code != http.StatusAccepted {
		t.Fatalf("POST → %d, %v", code, err)
	}
	done := make(chan struct{})
	go func() {
		d.kill()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("kill did not return with a search held at its first probe")
	}
}
