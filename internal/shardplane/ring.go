// Package shardplane is MLCD's sharded control plane: the layer that
// lets the multi-tenant scheduler (internal/sched) scale past one
// process-wide queue, journal, and cache. It contributes three pieces:
//
//   - a consistent-hash Ring with virtual nodes mapping tenants onto N
//     scheduler shards deterministically, so the same tenant always
//     lands on the same shard and shard-count churn remaps only a
//     bounded ~1/N fraction of tenants;
//   - a Plane routing submissions across N independent sched.Scheduler
//     shards — each with its own bounded queue, worker pool, segmented
//     journal, and hot profiling cache — behind one API surface;
//   - a snapshot merge loop that periodically publishes the union of
//     every shard's hot cache as an immutable read-only tier installed
//     on all shards, so cross-tenant warm-starts survive resharding.
package shardplane

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per shard. Load variance on
// a consistent-hash ring falls as 1/√replicas: 512 points per shard
// keeps every shard's share of 1M tenants within 10% of uniform (the
// ring property test pins this) while the ring stays small enough to
// rebuild instantly on churn.
const DefaultReplicas = 512

// Ring is a consistent-hash ring: Shards() shards, each owning
// DefaultReplicas virtual points on a 64-bit circle. Tenant lookups walk
// clockwise to the first point. The ring is immutable after
// construction — churn is modeled by building a ring with a different
// shard count and comparing, which is what the plane does on reshard.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of n shards with DefaultReplicas virtual nodes
// each. n must be >= 1.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("shardplane: ring needs at least one shard")
	}
	ring := &Ring{shards: n, points: make([]ringPoint, 0, n*DefaultReplicas)}
	for shard := 0; shard < n; shard++ {
		for v := 0; v < DefaultReplicas; v++ {
			h := hash64(fmt.Sprintf("shard-%d#%d", shard, v))
			ring.points = append(ring.points, ringPoint{hash: h, shard: shard})
		}
	}
	// Sort by hash; on the (vanishingly rare) collision the lower shard
	// index wins deterministically, so two builds of the same ring — or
	// of rings sharing shard indices — always agree.
	sort.Slice(ring.points, func(a, b int) bool {
		if ring.points[a].hash != ring.points[b].hash {
			return ring.points[a].hash < ring.points[b].hash
		}
		return ring.points[a].shard < ring.points[b].shard
	})
	return ring
}

// hash64 is FNV-1a followed by a SplitMix64-style avalanche finalizer.
// Both stages are dependency-free and stable across processes and Go
// versions (unlike maphash), which the deterministic tenant→shard
// contract requires; the finalizer matters because raw FNV of short,
// similar keys ("shard-3#17") clusters badly on the ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Shard maps a tenant to its shard: the first virtual node clockwise
// from the tenant's hash. The empty tenant is a valid key (anonymous
// submissions all share one shard).
func (r *Ring) Shard(tenant string) int {
	h := hash64(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].shard
}

// ShardExcluding walks clockwise from the tenant's hash to the first
// virtual node whose shard excluded() does not veto, preserving the
// consistent-hash property for the healthy subset: tenants NOT owned by
// an excluded shard keep their usual placement, and tenants that are
// rerouted land deterministically (the same degraded set always yields
// the same fallback). Returns -1 when every shard is excluded.
func (r *Ring) ShardExcluding(tenant string, excluded func(shard int) bool) int {
	h := hash64(tenant)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if !excluded(p.shard) {
			return p.shard
		}
	}
	return -1
}
