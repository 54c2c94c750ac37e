package cloudapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

func newPair(t *testing.T, quota cloud.Quota) (*cloud.SimProvider, *Client, *httptest.Server) {
	t.Helper()
	prov := cloud.NewSimProvider(quota, time.Minute)
	cat := cloud.DefaultCatalog()
	srv := httptest.NewServer(NewServer(prov, cat))
	t.Cleanup(srv.Close)
	return prov, NewClient(srv.URL, cat), srv
}

func TestClientLifecycleOverHTTP(t *testing.T) {
	prov, client, _ := newPair(t, cloud.DefaultQuota)
	d := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.xlarge"), 4)
	cl, err := client.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	if cl.State != cloud.ClusterPending || cl.ID == "" {
		t.Fatalf("launched cluster = %+v", cl)
	}
	if err := client.WaitReady(cl); err != nil {
		t.Fatal(err)
	}
	if elapsed, err := client.Run(cl, time.Hour); err != nil || elapsed != time.Hour {
		t.Fatalf("Run consumed %v (err %v), want exactly 1h", elapsed, err)
	}
	if err := client.Terminate(cl); err != nil {
		t.Fatal(err)
	}
	if cl.State != cloud.ClusterTerminated {
		t.Fatalf("state = %v", cl.State)
	}
	// Client-side views of time and billing agree with the provider.
	if got, want := client.Now(), prov.Now(); got != want {
		t.Fatalf("Now = %v, provider says %v", got, want)
	}
	if got, want := client.TotalBilled(), prov.TotalBilled(); got != want {
		t.Fatalf("TotalBilled = %v, provider says %v", got, want)
	}
	if client.TotalBilled() <= 0 {
		t.Fatal("an hour of cluster time must be billed")
	}
}

func TestClientErrorMapping(t *testing.T) {
	_, client, _ := newPair(t, cloud.Quota{MaxCPUNodes: 2, MaxGPUNodes: 1})
	d := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.large"), 2)
	if _, err := client.Launch(d); err != nil {
		t.Fatal(err)
	}
	// Quota exhausted → the sentinel error survives the HTTP hop.
	if _, err := client.Launch(d); !errors.Is(err, cloud.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want quota exceeded", err)
	}
	// Operating on an unknown cluster → not-active.
	ghost := &cloud.Cluster{ID: "cluster-9999", Deployment: d}
	if err := client.WaitReady(ghost); !errors.Is(err, cloud.ErrClusterNotActive) {
		t.Fatalf("err = %v, want not-active", err)
	}
}

func TestClientTransientMapping(t *testing.T) {
	storm := chaos.Wrap(cloud.NewSimProvider(cloud.DefaultQuota, time.Minute), chaos.Plan{
		Name:   "every-launch",
		Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Rate: 1}},
	}, 1, nil)
	srv := httptest.NewServer(NewServer(storm, cloud.DefaultCatalog()))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, cloud.DefaultCatalog())
	d := cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.large"), 1)
	if _, err := client.Launch(d); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("err = %v, want transient", err)
	}
	if n := storm.Injected(chaos.KindLaunchError); n != 1 {
		t.Fatalf("Injected(launch_error) = %d, want 1", n)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, _, srv := newPair(t, cloud.DefaultQuota)
	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}
	if code := post("/v1/clusters", `{`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON → %d", code)
	}
	if code := post("/v1/clusters", `{"type":"m9.huge","nodes":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown type → %d", code)
	}
	if code := post("/v1/clusters", `{"type":"c5.large","nodes":0}`); code != http.StatusBadRequest {
		t.Fatalf("zero nodes → %d", code)
	}
	if code := post("/v1/clusters/cluster-0001/run", `{"seconds":-5}`); code != http.StatusBadRequest && code != http.StatusNotFound {
		t.Fatalf("negative run → %d", code)
	}
	// A live cluster and a run past time.Duration's range: the seconds
	// must be refused, not wrapped negative into the provider.
	if code := post("/v1/clusters", `{"type":"c5.large","nodes":1}`); code != http.StatusCreated {
		t.Fatalf("launch → %d", code)
	}
	if code := post("/v1/clusters/cluster-0001/wait", ``); code != http.StatusOK {
		t.Fatalf("wait → %d", code)
	}
	if code := post("/v1/clusters/cluster-0001/run", `{"seconds":1e19}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range run → %d", code)
	}
}

func TestCatalogEndpointRoundTrips(t *testing.T) {
	_, client, _ := newPair(t, cloud.DefaultQuota)
	types, err := client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != cloud.DefaultCatalog().Len() {
		t.Fatalf("catalog round-trip lost types: %d", len(types))
	}
	rebuilt, err := cloud.NewCatalog(types)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rebuilt.Lookup("p3.16xlarge"); !ok {
		t.Fatal("rebuilt catalog incomplete")
	}
}

func TestBillingEndpointJSONShape(t *testing.T) {
	_, _, srv := newPair(t, cloud.DefaultQuota)
	resp, err := http.Get(srv.URL + "/v1/billing")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["total_usd"]; !ok {
		t.Fatal("billing response missing total_usd")
	}
}

func TestMLCDDeployOverHTTP(t *testing.T) {
	// The whole MLCD pipeline — HeterBO probes, training run, billing —
	// driven through the HTTP control plane.
	prov := cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(prov, cloud.DefaultCatalog()))
	defer srv.Close()
	client := NewClient(srv.URL, cloud.DefaultCatalog())

	sys := mlcdsys.New(mlcdsys.Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: client,
		Seed:     1,
	})
	rep, err := sys.Deploy(workload.ResNetCIFAR10, mlcdsys.Requirements{Budget: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != search.FastestWithBudget || !rep.Satisfied {
		t.Fatalf("report: %+v", rep)
	}
	if prov.TotalBilled() <= 0 {
		t.Fatal("the backing provider saw no billing — the HTTP hop was bypassed")
	}
	cpu, gpu := prov.InUse()
	if cpu != 0 || gpu != 0 {
		t.Fatalf("clusters leaked through the HTTP path: %d CPU, %d GPU", cpu, gpu)
	}
}

func TestClientAdvanceMovesServerClock(t *testing.T) {
	prov, client, _ := newPair(t, cloud.DefaultQuota)
	before := prov.Now()
	start := time.Now()
	client.Advance(90 * time.Second)
	if got := prov.Now() - before; got != 90*time.Second {
		t.Fatalf("Advance(90s) moved the server clock by %v", got)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("Advance(90s) took %v of wall time: it slept instead of advancing", wall)
	}
}

func TestServerAdvanceRefusals(t *testing.T) {
	_, _, srv := newPair(t, cloud.DefaultQuota)
	// A provider with no virtual clock: the embedded interface hides
	// SimProvider's Advance.
	wall := httptest.NewServer(NewServer(struct{ cloud.Provider }{cloud.NewSimProvider(cloud.DefaultQuota, time.Minute)}, cloud.DefaultCatalog()))
	t.Cleanup(wall.Close)
	post := func(base, body string) int {
		resp, err := http.Post(base+"/v1/advance", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}
	for body, want := range map[string]int{
		`{`:                 http.StatusBadRequest,
		`{"seconds":-1}`:    http.StatusBadRequest,
		`{"seconds":1e19}`:  http.StatusBadRequest,
		`{"seconds":1e999}`: http.StatusBadRequest,
		`{"seconds":0}`:     http.StatusOK,
		`{"seconds":30}`:    http.StatusOK,
	} {
		if code := post(srv.URL, body); code != want {
			t.Errorf("advance %s → %d, want %d", body, code, want)
		}
	}
	if code := post(wall.URL, `{"seconds":30}`); code != http.StatusConflict {
		t.Errorf("advance on a provider without a virtual clock → %d, want 409", code)
	}
}

func TestMLCDDeployRetryBacksOffOnServerClock(t *testing.T) {
	// The first launch is refused, so the deploy sleeps one retry
	// backoff (12–18 s): on the server's virtual clock, not the wall's.
	refuse := chaos.Wrap(cloud.NewSimProvider(cloud.DefaultQuota, time.Minute), chaos.Plan{
		Name:   "first-launch",
		Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Count: 1}},
	}, 1, nil)
	cat, err := cloud.DefaultCatalog().Subset("c5.4xlarge")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(refuse, cloud.DefaultCatalog()))
	defer srv.Close()
	sys := mlcdsys.New(mlcdsys.Config{
		Catalog:  cat,
		Limits:   cloud.SpaceLimits{MaxCPUNodes: 40, MaxGPUNodes: 1},
		Provider: NewClient(srv.URL, cloud.DefaultCatalog()),
		Seed:     1,
	})
	start := time.Now()
	if _, err := sys.Deploy(workload.ResNetCIFAR10, mlcdsys.Requirements{Budget: 120}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if n := refuse.Injected(chaos.KindLaunchError); n != 1 {
		t.Fatalf("Injected(launch_error) = %d, want 1", n)
	}
	if wall > time.Second {
		t.Fatalf("deploy took %v of wall time: the retry backoff slept on the wall clock", wall)
	}
	t.Logf("deploy with one refused launch: %v of wall time", wall)
}
