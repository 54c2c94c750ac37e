package cloud

import (
	"errors"
	"math"
	"testing"
	"time"
)

func testDeployment(t *testing.T, name string, n int) Deployment {
	t.Helper()
	return NewDeployment(DefaultCatalog().MustLookup(name), n)
}

func TestProviderLifecycle(t *testing.T) {
	p := NewSimProvider(DefaultQuota, 2*time.Minute)
	d := testDeployment(t, "c5.xlarge", 4)
	c, err := p.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != ClusterPending {
		t.Fatalf("state after launch = %v, want pending", c.State)
	}
	if err := p.WaitReady(c); err != nil {
		t.Fatal(err)
	}
	if c.State != ClusterRunning {
		t.Fatalf("state = %v, want running", c.State)
	}
	if p.Now() != 2*time.Minute {
		t.Fatalf("boot must advance virtual clock: now = %v", p.Now())
	}
	if elapsed, err := p.Run(c, time.Hour); err != nil || elapsed != time.Hour {
		t.Fatalf("Run consumed %v (err %v), want exactly 1h", elapsed, err)
	}
	if err := p.Terminate(c); err != nil {
		t.Fatal(err)
	}
	// Billed for boot + 1 h at 4×$0.17.
	want := 4 * 0.17 * (time.Hour + 2*time.Minute).Hours()
	if got := p.TotalBilled(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalBilled = %v, want %v", got, want)
	}
}

func TestProviderQuota(t *testing.T) {
	p := NewSimProvider(Quota{MaxCPUNodes: 10, MaxGPUNodes: 2}, 0)
	if _, err := p.Launch(testDeployment(t, "c5.large", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(testDeployment(t, "c5.large", 1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want quota exceeded", err)
	}
	if _, err := p.Launch(testDeployment(t, "p2.xlarge", 2)); err != nil {
		t.Fatalf("GPU quota is independent: %v", err)
	}
	if _, err := p.Launch(testDeployment(t, "p3.2xlarge", 1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want GPU quota exceeded", err)
	}
}

func TestProviderQuotaReleasedOnTerminate(t *testing.T) {
	p := NewSimProvider(Quota{MaxCPUNodes: 5, MaxGPUNodes: 5}, 0)
	c, err := p.Launch(testDeployment(t, "c5.large", 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitReady(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(c); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(testDeployment(t, "c5.large", 5)); err != nil {
		t.Fatalf("quota must be released: %v", err)
	}
	cpu, gpu := p.InUse()
	if cpu != 5 || gpu != 0 {
		t.Fatalf("InUse = %d, %d", cpu, gpu)
	}
}

func TestProviderRunRequiresRunning(t *testing.T) {
	p := NewSimProvider(DefaultQuota, time.Minute)
	c, err := p.Launch(testDeployment(t, "c5.large", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(c, time.Hour); !errors.Is(err, ErrClusterNotActive) {
		t.Fatalf("Run before ready: err = %v", err)
	}
	if err := p.WaitReady(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(c); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(c, time.Hour); !errors.Is(err, ErrClusterNotActive) {
		t.Fatalf("Run after terminate: err = %v", err)
	}
}

func TestProviderTerminateIdempotent(t *testing.T) {
	p := NewSimProvider(DefaultQuota, 0)
	c, _ := p.Launch(testDeployment(t, "c5.large", 1))
	_ = p.WaitReady(c)
	if err := p.Terminate(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(c); err != nil {
		t.Fatalf("second terminate must be a no-op: %v", err)
	}
}

func TestProviderBillingWhileRunning(t *testing.T) {
	p := NewSimProvider(DefaultQuota, 0)
	c, _ := p.Launch(testDeployment(t, "c5.xlarge", 2))
	_ = p.WaitReady(c)
	_, _ = p.Run(c, 30*time.Minute)
	want := 2 * 0.17 * 0.5
	if got := p.TotalBilled(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("running bill = %v, want %v", got, want)
	}
}

func TestProviderRunNegativePanics(t *testing.T) {
	p := NewSimProvider(DefaultQuota, 0)
	c, _ := p.Launch(testDeployment(t, "c5.large", 1))
	_ = p.WaitReady(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = p.Run(c, -time.Second)
}

func TestClusterStateString(t *testing.T) {
	if ClusterPending.String() != "pending" || ClusterRunning.String() != "running" ||
		ClusterTerminated.String() != "terminated" {
		t.Fatal("state names wrong")
	}
	if ClusterState(99).String() == "" {
		t.Fatal("unknown state must still render")
	}
}

func TestNewSimProviderDefaults(t *testing.T) {
	p := NewSimProvider(Quota{}, -time.Second)
	if _, err := p.Launch(testDeployment(t, "c5.large", DefaultQuota.MaxCPUNodes)); err != nil {
		t.Fatalf("defaulted quota must admit %d CPU nodes: %v", DefaultQuota.MaxCPUNodes, err)
	}
}
