package cloud

import (
	"errors"
	"testing"
	"time"
)

// TestClusterBilledEdgeCases pins the billing meter's behaviour at the
// awkward boundaries: clusters that never ran, clocks that have not
// reached the launch instant, and terminated clusters observed long
// after they stopped.
func TestClusterBilledEdgeCases(t *testing.T) {
	it := DefaultCatalog().MustLookup("c5.4xlarge")
	d := NewDeployment(it, 4)
	hourly := d.HourlyCost()

	cases := []struct {
		name    string
		cluster Cluster
		now     time.Duration
		want    float64
	}{
		{
			name:    "zero duration: terminated at launch instant",
			cluster: Cluster{Deployment: d, State: ClusterTerminated, LaunchedAt: time.Hour, StoppedAt: time.Hour},
			now:     3 * time.Hour,
			want:    0,
		},
		{
			name:    "clock before launch bills nothing",
			cluster: Cluster{Deployment: d, State: ClusterPending, LaunchedAt: 2 * time.Hour},
			now:     time.Hour,
			want:    0,
		},
		{
			name:    "pending cluster bills from launch (boot time is paid)",
			cluster: Cluster{Deployment: d, State: ClusterPending, LaunchedAt: time.Hour, ReadyAt: time.Hour + 2*time.Minute},
			now:     time.Hour + time.Minute,
			want:    hourly / 60,
		},
		{
			name:    "running cluster accrues with the clock",
			cluster: Cluster{Deployment: d, State: ClusterRunning, LaunchedAt: 0},
			now:     90 * time.Minute,
			want:    1.5 * hourly,
		},
		{
			name:    "terminated cluster freezes at StoppedAt",
			cluster: Cluster{Deployment: d, State: ClusterTerminated, LaunchedAt: 0, StoppedAt: time.Hour},
			now:     100 * time.Hour,
			want:    hourly,
		},
		{
			name:    "terminated with StoppedAt before LaunchedAt bills nothing",
			cluster: Cluster{Deployment: d, State: ClusterTerminated, LaunchedAt: time.Hour, StoppedAt: 0},
			now:     2 * time.Hour,
			want:    0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cluster.Billed(tc.now); !approxEq(got, tc.want) {
				t.Fatalf("Billed(%s) = %v, want %v", tc.now, got, tc.want)
			}
		})
	}
}

func approxEq(a, b float64) bool {
	diff := a - b
	return diff < 1e-9 && diff > -1e-9
}

// TestTerminateBeforeReady kills a cluster that never finished booting:
// no virtual time elapsed, so nothing is billed, the quota is released,
// and the cluster cannot be revived.
func TestTerminateBeforeReady(t *testing.T) {
	p := NewSimProvider(Quota{MaxCPUNodes: 8, MaxGPUNodes: 1}, 2*time.Minute)
	d := NewDeployment(DefaultCatalog().MustLookup("c5.4xlarge"), 8)

	c, err := p.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != ClusterPending {
		t.Fatalf("state after launch = %v", c.State)
	}
	if err := p.Terminate(c); err != nil {
		t.Fatal(err)
	}
	if c.State != ClusterTerminated {
		t.Fatalf("state after terminate = %v", c.State)
	}
	if got := c.Billed(p.Now()); got != 0 {
		t.Fatalf("terminate-before-ready billed $%v, want $0", got)
	}
	if got := p.TotalBilled(); got != 0 {
		t.Fatalf("provider total = $%v, want $0", got)
	}
	if err := p.WaitReady(c); !errors.Is(err, ErrClusterNotActive) {
		t.Fatalf("WaitReady on terminated cluster = %v, want ErrClusterNotActive", err)
	}
	if _, err := p.Run(c, time.Minute); !errors.Is(err, ErrClusterNotActive) {
		t.Fatalf("Run on terminated cluster = %v, want ErrClusterNotActive", err)
	}
	// The freed quota must admit a fresh full-width launch.
	if _, err := p.Launch(d); err != nil {
		t.Fatalf("relaunch after early terminate: %v", err)
	}
}

// TestQuotaExhaustionEdges drives the quota check to its exact
// boundaries, per pool: filling a pool to the brim succeeds, one node
// over fails, and the CPU and GPU pools do not interfere.
func TestQuotaExhaustionEdges(t *testing.T) {
	cat := DefaultCatalog()
	cpu := cat.MustLookup("c5.4xlarge")
	gpu := cat.MustLookup("p3.2xlarge")

	cases := []struct {
		name     string
		quota    Quota
		launches []Deployment
		wantErr  []bool // per launch, whether ErrQuotaExceeded is expected
	}{
		{
			name:     "cpu pool filled exactly then overflows",
			quota:    Quota{MaxCPUNodes: 10, MaxGPUNodes: 1},
			launches: []Deployment{NewDeployment(cpu, 10), NewDeployment(cpu, 1)},
			wantErr:  []bool{false, true},
		},
		{
			name:     "single node over an empty pool's limit",
			quota:    Quota{MaxCPUNodes: 2, MaxGPUNodes: 1},
			launches: []Deployment{NewDeployment(cpu, 3)},
			wantErr:  []bool{true},
		},
		{
			name:  "gpu exhaustion leaves the cpu pool usable",
			quota: Quota{MaxCPUNodes: 4, MaxGPUNodes: 2},
			launches: []Deployment{
				NewDeployment(gpu, 2),
				NewDeployment(gpu, 1),
				NewDeployment(cpu, 4),
			},
			wantErr: []bool{false, true, false},
		},
		{
			name:  "cpu exhaustion leaves the gpu pool usable",
			quota: Quota{MaxCPUNodes: 4, MaxGPUNodes: 2},
			launches: []Deployment{
				NewDeployment(cpu, 4),
				NewDeployment(cpu, 1),
				NewDeployment(gpu, 2),
			},
			wantErr: []bool{false, true, false},
		},
		{
			name:  "incremental fills hit the limit only at the boundary",
			quota: Quota{MaxCPUNodes: 6, MaxGPUNodes: 1},
			launches: []Deployment{
				NewDeployment(cpu, 2),
				NewDeployment(cpu, 2),
				NewDeployment(cpu, 2),
				NewDeployment(cpu, 1),
			},
			wantErr: []bool{false, false, false, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewSimProvider(tc.quota, 0)
			for i, d := range tc.launches {
				_, err := p.Launch(d)
				if got := errors.Is(err, ErrQuotaExceeded); got != tc.wantErr[i] {
					t.Fatalf("launch %d (%s): err = %v, want quota error %t", i, d, err, tc.wantErr[i])
				}
				if err != nil && !errors.Is(err, ErrQuotaExceeded) {
					t.Fatalf("launch %d (%s): unexpected error %v", i, d, err)
				}
			}
		})
	}
}

// TestCatalogSubsetEdgeCases covers Subset where it can go wrong: empty
// selections, unknown names, duplicates, and order preservation.
func TestCatalogSubsetEdgeCases(t *testing.T) {
	cat := DefaultCatalog()
	cases := []struct {
		name    string
		names   []string
		wantErr bool
		wantLen int
	}{
		{name: "empty selection is a valid empty catalog", names: nil, wantLen: 0},
		{name: "single type", names: []string{"c5.large"}, wantLen: 1},
		{name: "order preserved", names: []string{"p3.2xlarge", "c4.large"}, wantLen: 2},
		{name: "unknown name rejected", names: []string{"m5.24xlarge"}, wantErr: true},
		{name: "known then unknown rejected", names: []string{"c5.large", "nope"}, wantErr: true},
		{name: "duplicate rejected", names: []string{"c5.large", "c5.large"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := cat.Subset(tc.names...)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Subset(%v) succeeded, want error", tc.names)
				}
				return
			}
			if err != nil {
				t.Fatalf("Subset(%v): %v", tc.names, err)
			}
			if sub.Len() != tc.wantLen {
				t.Fatalf("Subset(%v).Len() = %d, want %d", tc.names, sub.Len(), tc.wantLen)
			}
			for i, n := range tc.names {
				if got := sub.Types()[i].Name; got != n {
					t.Fatalf("Subset order: position %d = %s, want %s", i, got, n)
				}
			}
		})
	}
}
