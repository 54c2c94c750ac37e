package mlcdapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestShardedServerEndToEnd drives the full HTTP surface against a
// 2-shard control plane: tenants land on ring-chosen shards, IDs route
// back through GET/DELETE, /v1/stats serves the plane-wide shape, and
// /metrics carries the per-shard series.
func TestShardedServerEndToEnd(t *testing.T) {
	srv, hts := newService(t, ServerConfig{Shards: 2, Workers: 1, MergeEvery: -1})
	if srv.Scheduler() != nil || srv.Plane() == nil {
		t.Fatal("sharded server must expose Plane, not Scheduler")
	}
	ring := srv.Plane().Ring()

	// One tenant per shard, discovered through the same ring the server
	// routes with.
	tenants := [2]string{}
	for i := 0; tenants[0] == "" || tenants[1] == ""; i++ {
		cand := fmt.Sprintf("tenant-%d", i)
		tenants[ring.Shard(cand)] = cand
	}

	var ids []string
	for shard, tenant := range tenants {
		sub := submit(t, hts.URL, fmt.Sprintf(
			`{"job":"resnet-cifar10","budget_usd":100,"tenant":%q}`, tenant))
		if !strings.HasPrefix(sub.ID, fmt.Sprintf("s%d-job-", shard)) {
			t.Fatalf("tenant %q (shard %d) got ID %s", tenant, shard, sub.ID)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		if done := await(t, hts.URL, id); done.Status != StatusDone {
			t.Fatalf("%s → %s (%s)", id, done.Status, done.Error)
		}
	}

	// The plane-wide stats shape: shards, aggregate, per-shard.
	resp, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards    int `json:"shards"`
		Aggregate struct {
			JobsByStatus map[string]int `json:"jobs_by_status"`
		} `json:"aggregate"`
		PerShard []json.RawMessage `json:"per_shard"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || len(stats.PerShard) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Aggregate.JobsByStatus["done"] != 2 {
		t.Fatalf("aggregate done = %d, want 2", stats.Aggregate.JobsByStatus["done"])
	}

	// Per-shard series on /metrics, distinguished by the shard label.
	mresp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	for _, want := range []string{
		`mlcd_shardplane_shards 2`,
		`shard="0"`,
		`shard="1"`,
		`mlcd_shardplane_snapshot_merges_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	b := new(strings.Builder)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestLegacyJournalFileRejected: a single-file journal from an older
// daemon is refused, not imported. A JournalDir naming such a file must
// fail at start, for one scheduler and for a sharded plane alike, and
// the error must say which path is wrong.
func TestLegacyJournalFileRejected(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "mlcdd.journal")
	record := `{"type":"submit","id":"job-0001","job":"resnet-cifar10","tenant":"acme","budget_usd":100}` + "\n"
	if err := os.WriteFile(legacy, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		srv, err := NewServerWithConfig(newSystem(t), ServerConfig{
			Shards: shards, JournalDir: legacy, MergeEvery: -1, HealthEvery: -1,
		})
		if err == nil {
			srv.Close()
			t.Fatalf("shards=%d: a JournalDir naming a journal file was accepted", shards)
		}
		if !errors.Is(err, syscall.ENOTDIR) {
			t.Errorf("shards=%d: err = %v, want ENOTDIR", shards, err)
		}
		if !strings.Contains(err.Error(), legacy) {
			t.Errorf("shards=%d: error %q does not name %s", shards, err, legacy)
		}
	}
}

// TestShardedJournalRecoveryOverHTTP: a sharded server restarted over
// the same journal tree serves its recovered submissions through GET.
func TestShardedJournalRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()

	srvA, htsA := newService(t, ServerConfig{
		Shards: 2, Workers: 1, MergeEvery: -1, JournalDir: dir,
	})
	sub := submit(t, htsA.URL, `{"job":"resnet-cifar10","budget_usd":100,"tenant":"acme"}`)
	first := await(t, htsA.URL, sub.ID)
	if first.Status != StatusDone {
		t.Fatalf("first run → %s (%s)", first.Status, first.Error)
	}
	srvA.Close()

	_, htsB := newService(t, ServerConfig{
		Shards: 2, Workers: 1, MergeEvery: -1, JournalDir: dir,
	})
	resp, err := http.Get(htsB.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got submissionJSON
	err = json.NewDecoder(resp.Body).Decode(&got)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.Status != StatusDone {
		t.Fatalf("recovered submission → %d %+v", resp.StatusCode, got)
	}
	if got.Tenant != "acme" || got.ID != sub.ID {
		t.Fatalf("recovered identity mangled: %+v", got)
	}
}

// TestOversizedTenantKeepsJournalReplayable: a 2 MiB tenant name is a
// 400 and never reaches the journal, so a restart over the journal tree
// still recovers every job acked before it. Journaled, its line would
// exceed what replay reads, and every later restart of its shard would
// fail.
func TestOversizedTenantKeepsJournalReplayable(t *testing.T) {
	cfg := ServerConfig{Shards: 2, Workers: 1, MergeEvery: -1, JournalDir: t.TempDir()}
	srvA, htsA := newService(t, cfg)
	var acked []submissionJSON
	for _, tenant := range []string{"acme", "globex", "initech", "umbrella"} {
		sub := submit(t, htsA.URL, fmt.Sprintf(`{"job":"resnet-cifar10","budget_usd":100,"tenant":%q}`, tenant))
		acked = append(acked, await(t, htsA.URL, sub.ID))
	}

	body := fmt.Sprintf(`{"job":"resnet-cifar10","budget_usd":100,"tenant":%q}`, strings.Repeat("x", 2<<20))
	resp, err := http.Post(htsA.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("2 MiB tenant → %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	srvA.Close()

	_, htsB := newService(t, cfg)
	for _, want := range acked {
		resp, err := http.Get(htsB.URL + "/v1/jobs/" + want.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got submissionJSON
		err = json.NewDecoder(resp.Body).Decode(&got)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || got.Status != want.Status || got.Tenant != want.Tenant {
			t.Errorf("%s after restart → %d %s/%q, want %s/%q",
				want.ID, resp.StatusCode, got.Status, got.Tenant, want.Status, want.Tenant)
		}
	}
}
