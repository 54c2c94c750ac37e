package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mlcd_test_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if r.Counter("mlcd_test_total", "help") != c {
		t.Fatal("same name must return same counter")
	}
	g := r.Gauge("mlcd_test_depth", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add must panic")
		}
	}()
	c.Add(-1)
}

func TestLabelledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mlcd_jobs_total", "", L{"status", "done"})
	b := r.Counter("mlcd_jobs_total", "", L{"status", "failed"})
	if a == b {
		t.Fatal("different label values must be different series")
	}
	a.Inc()
	if got := r.Counter("mlcd_jobs_total", "", L{"status", "done"}).Value(); got != 1 {
		t.Fatalf("relookup = %v, want 1", got)
	}
	// Label order must not matter.
	x := r.Gauge("mlcd_g", "", L{"a", "1"}, L{"b", "2"})
	y := r.Gauge("mlcd_g", "", L{"b", "2"}, L{"a", "1"})
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mlcd_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as gauge must panic")
		}
	}()
	r.Gauge("mlcd_x", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	r.Counter("0bad name", "")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mlcd_lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mlcd_lat_seconds histogram",
		`mlcd_lat_seconds_bucket{le="0.1"} 1`,
		`mlcd_lat_seconds_bucket{le="1"} 3`,
		`mlcd_lat_seconds_bucket{le="10"} 4`,
		`mlcd_lat_seconds_bucket{le="+Inf"} 5`,
		"mlcd_lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("mlcd_b_total", "second", L{"z", "1"}).Inc()
	r.Counter("mlcd_b_total", "second", L{"a", "1"}).Add(2)
	r.Gauge("mlcd_a_depth", "first\nline").Set(3)
	r.Counter("mlcd_c_total", "", L{"path", `C:\tmp`}).Inc()

	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatal("exposition output not deterministic across renders")
		}
	}
	if !strings.Contains(first, `# HELP mlcd_a_depth first\nline`) {
		t.Errorf("help not escaped:\n%s", first)
	}
	if !strings.Contains(first, `mlcd_c_total{path="C:\\tmp"} 1`) {
		t.Errorf("label value not escaped:\n%s", first)
	}
	// Families must come out name-sorted.
	ia := strings.Index(first, "mlcd_a_depth")
	ib := strings.Index(first, "mlcd_b_total")
	ic := strings.Index(first, "mlcd_c_total")
	if !(ia < ib && ib < ic) {
		t.Errorf("families unsorted:\n%s", first)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				r.Counter("mlcd_conc_total", "").Inc()
				r.Gauge("mlcd_conc_depth", "").Set(float64(k))
				r.Histogram("mlcd_conc_seconds", "", nil).Observe(float64(k) / 100)
				if i == 0 && k%50 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("mlcd_conc_total", "").Value(); got != 1600 {
		t.Fatalf("concurrent counter = %v, want 1600", got)
	}
}

func TestRecorderTimeline(t *testing.T) {
	rec := NewRecorder(0)
	jt := rec.Start("job-0001", "resnet-cifar10", "acme", "scenario3-fastest-budget")
	jt.Emit(Event{Kind: "submitted", Note: "budget $100.00"})
	jt.Emit(Event{Kind: "probe", Step: 1, Deployment: "1×c5.xlarge", Throughput: 42, ProfileUSD: 0.03})

	tr, ok := rec.Get("job-0001")
	if !ok {
		t.Fatal("trace lost")
	}
	if tr.Job != "resnet-cifar10" || tr.Tenant != "acme" || len(tr.Events) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Events[0].Seq != 1 || tr.Events[1].Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d", tr.Events[0].Seq, tr.Events[1].Seq)
	}

	// Snapshots are deep copies: mutating one must not leak back.
	tr.Events[0].Kind = "mutated"
	tr2, _ := rec.Get("job-0001")
	if tr2.Events[0].Kind != "submitted" {
		t.Fatal("Get returned a shared slice")
	}

	// Restarting an existing job appends, not resets.
	jt2 := rec.Start("job-0001", "resnet-cifar10", "acme", "scenario3-fastest-budget")
	jt2.Emit(Event{Kind: "recovered"})
	tr3, _ := rec.Get("job-0001")
	if len(tr3.Events) != 3 || tr3.Events[2].Seq != 3 {
		t.Fatalf("restart reset the trace: %+v", tr3.Events)
	}
}

func TestRecorderNilSinkAndUnknownJob(t *testing.T) {
	var jt *JobTrace
	jt.Emit(Event{Kind: "ignored"}) // must not panic

	rec := NewRecorder(2)
	if _, ok := rec.Get("nope"); ok {
		t.Fatal("unknown job must not resolve")
	}
}

func TestRecorderEviction(t *testing.T) {
	rec := NewRecorder(2)
	for i := 1; i <= 3; i++ {
		rec.Start(fmt.Sprintf("job-%04d", i), "j", "", "").Emit(Event{Kind: "submitted"})
	}
	if rec.Len() != 2 {
		t.Fatalf("retained = %d, want 2", rec.Len())
	}
	if _, ok := rec.Get("job-0001"); ok {
		t.Fatal("oldest trace must be evicted")
	}
	if _, ok := rec.Get("job-0003"); !ok {
		t.Fatal("newest trace must be retained")
	}
}

func TestMarshalTraceStable(t *testing.T) {
	rec := NewRecorder(0)
	jt := rec.Start("job-0001", "bert-wiki", "", "scenario2-cheapest-deadline")
	jt.Emit(Event{Kind: "probe", Step: 1, Deployment: "4×p3.2xlarge", Throughput: 19.25, ProfileUSD: 2.125, CumProfileUSD: 2.125})
	jt.Emit(Event{Kind: "stop", Note: "expected improvement below tolerance"})

	tr, _ := rec.Get("job-0001")
	a, err := MarshalTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MarshalTrace(tr)
	if string(a) != string(b) {
		t.Fatal("marshal not deterministic")
	}
	for _, want := range []string{`"job_id": "job-0001"`, `"kind": "probe"`, `"profile_usd": 2.125`} {
		if !strings.Contains(string(a), want) {
			t.Errorf("marshal missing %q:\n%s", want, a)
		}
	}
	if strings.Contains(string(a), `"tenant"`) {
		t.Errorf("empty tenant must be omitted:\n%s", a)
	}
}

func TestSumRollsUpLabelledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("mlcd_jobs_total", "h", L{Key: "shard", Value: "0"}).Add(3)
	r.Counter("mlcd_jobs_total", "h", L{Key: "shard", Value: "1"}).Add(4)
	r.Counter("mlcd_jobs_total", "h").Inc() // unlabelled series joins the roll-up
	if got := r.Sum("mlcd_jobs_total"); got != 8 {
		t.Errorf("counter Sum = %v, want 8", got)
	}

	r.Gauge("mlcd_depth", "h", L{Key: "shard", Value: "0"}).Set(5)
	r.Gauge("mlcd_depth", "h", L{Key: "shard", Value: "1"}).Set(-2)
	if got := r.Sum("mlcd_depth"); got != 3 {
		t.Errorf("gauge Sum = %v, want 3", got)
	}

	h0 := r.Histogram("mlcd_lat", "h", []float64{1, 10}, L{Key: "shard", Value: "0"})
	h1 := r.Histogram("mlcd_lat", "h", nil, L{Key: "shard", Value: "1"})
	h0.Observe(0.5)
	h1.Observe(2.5)
	if got := r.Sum("mlcd_lat"); got != 3 {
		t.Errorf("histogram Sum = %v, want 3 (total observed value)", got)
	}

	if got := r.Sum("mlcd_never_registered"); got != 0 {
		t.Errorf("unknown family Sum = %v, want 0", got)
	}
}
