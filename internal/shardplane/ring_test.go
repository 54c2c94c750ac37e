package shardplane

import (
	"fmt"
	"testing"
)

// TestRingDeterministic: the tenant→shard contract is a pure function
// of (tenant, shard count, replicas) — two independently built rings
// must agree on every key.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(5), NewRing(5)
	for i := 0; i < 10000; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if a.Shard(tenant) != b.Shard(tenant) {
			t.Fatalf("rings disagree on %q: %d vs %d", tenant, a.Shard(tenant), b.Shard(tenant))
		}
	}
	if got := a.Shard(""); got < 0 || got >= 5 {
		t.Fatalf("empty tenant maps to %d", got)
	}
}

// TestRingDistributionSkew is the satellite property test: across 1M
// synthetic tenants, every shard's share stays within 10% of uniform.
func TestRingDistributionSkew(t *testing.T) {
	const tenants = 1_000_000
	const shards = 8
	r := NewRing(shards)
	counts := make([]int, shards)
	for i := 0; i < tenants; i++ {
		counts[r.Shard(fmt.Sprintf("tenant-%07d", i))]++
	}
	ideal := float64(tenants) / shards
	for s, c := range counts {
		skew := (float64(c) - ideal) / ideal
		if skew < -0.10 || skew > 0.10 {
			t.Errorf("shard %d holds %d tenants (%.1f%% off uniform %0.f); counts=%v",
				s, c, 100*skew, ideal, counts)
		}
	}
}

// TestRingChurnBounded: growing the ring by one shard remaps a bounded
// fraction of keys — close to the ideal 1/(n+1) — and every remapped
// key moves TO the new shard, never between surviving shards. That
// second property is what makes resharding cheap: surviving shards keep
// their tenants (and their journals and hot caches) untouched.
func TestRingChurnBounded(t *testing.T) {
	const tenants = 200_000
	const n = 8
	old, grown := NewRing(n), NewRing(n+1)
	moved := 0
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("tenant-%07d", i)
		a, b := old.Shard(tenant), grown.Shard(tenant)
		if a == b {
			continue
		}
		moved++
		if b != n {
			t.Fatalf("tenant %q moved shard %d → %d; only moves to the new shard %d are allowed",
				tenant, a, b, n)
		}
	}
	ideal := float64(tenants) / float64(n+1)
	if f := float64(moved); f > 2*ideal {
		t.Errorf("adding one shard remapped %d of %d tenants (ideal ≈ %.0f, bound 2×)",
			moved, tenants, ideal)
	}
	if moved == 0 {
		t.Error("adding a shard remapped nothing — the new shard would sit idle")
	}

	// Shrinking is the mirror image: only the removed shard's tenants
	// move (shard n-1 is the one NewRing(n-1) no longer has).
	shrunk := NewRing(n - 1)
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("tenant-%07d", i)
		a, b := old.Shard(tenant), shrunk.Shard(tenant)
		if a != b && a != n-1 {
			t.Fatalf("tenant %q on surviving shard %d was remapped to %d by a removal elsewhere",
				tenant, a, b)
		}
		if a == n-1 && b == n-1 {
			t.Fatalf("tenant %q still maps to removed shard %d", tenant, n-1)
		}
	}
}
