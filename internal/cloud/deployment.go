package cloud

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Deployment is the paper's D(m, n): n nodes of instance type m.
type Deployment struct {
	Type  InstanceType
	Nodes int
}

// NewDeployment pairs an instance type with a node count.
func NewDeployment(t InstanceType, nodes int) Deployment {
	if nodes < 1 {
		panic(fmt.Sprintf("cloud: deployment needs ≥1 node, got %d", nodes))
	}
	return Deployment{Type: t, Nodes: nodes}
}

// HourlyCost returns the deployment's total $/hour, P(m)·n.
func (d Deployment) HourlyCost() float64 {
	return d.Type.PricePerHr * float64(d.Nodes)
}

// CostFor returns the dollars billed for running the deployment for dur.
func (d Deployment) CostFor(dur time.Duration) float64 {
	return d.HourlyCost() * dur.Hours()
}

// String renders "10×c5.4xlarge".
func (d Deployment) String() string {
	return fmt.Sprintf("%d×%s", d.Nodes, d.Type.Name)
}

// Key returns a stable map key for the deployment.
func (d Deployment) Key() string { return d.String() }

// Space is the discrete deployment search space handed to the optimizers.
// It is immutable once built, so one Space may serve any number of
// concurrent searches; its Encoding is computed once and shared by all.
type Space struct {
	deployments []Deployment

	encOnce sync.Once
	enc     *Encoding
}

// Encoding is a Space's candidate view in the form a search sweeps it:
// every deployment's Features row and Key, and the first index holding
// each key. It is read-only: every search over the Space shares it.
type Encoding struct {
	Dim   int            // len(Features(d))
	Feats []float64      // Len()×Dim row-major Features rows
	Keys  []string       // Key() per deployment
	First []int          // per deployment: the first index with the same Key
	Index map[string]int // Key → first index
}

// Encoding returns the space's shared encoding, computing it on the first
// call. The result must not be modified.
func (s *Space) Encoding() *Encoding {
	s.encOnce.Do(func() {
		n := len(s.deployments)
		e := &Encoding{
			Keys:  make([]string, n),
			First: make([]int, n),
			Index: make(map[string]int, n),
		}
		for i, d := range s.deployments {
			f := Features(d)
			if e.Feats == nil {
				e.Dim = len(f)
				e.Feats = make([]float64, 0, n*e.Dim)
			}
			e.Feats = append(e.Feats, f...)
			key := d.Key()
			e.Keys[i] = key
			first, ok := e.Index[key]
			if !ok {
				first = i
				e.Index[key] = i
			}
			e.First[i] = first
		}
		s.enc = e
	})
	return s.enc
}

// SpaceLimits bounds the node counts explored per instance kind.
type SpaceLimits struct {
	MaxCPUNodes int // scale-out bound for CPU types (paper: up to 100)
	MaxGPUNodes int // scale-out bound for GPU types (paper: up to 50)
}

// DefaultLimits is the paper's experiment setup (§V-A).
var DefaultLimits = SpaceLimits{MaxCPUNodes: 100, MaxGPUNodes: 50}

// NewSpace enumerates every (type, 1..max) deployment of the catalog.
func NewSpace(c *Catalog, lim SpaceLimits) *Space {
	if lim.MaxCPUNodes < 1 || lim.MaxGPUNodes < 1 {
		panic("cloud: space limits must be ≥1")
	}
	maxNodes := func(it InstanceType) int {
		if it.IsGPU() {
			return lim.MaxGPUNodes
		}
		return lim.MaxCPUNodes
	}
	types := c.Types()
	total := 0
	for _, it := range types {
		total += maxNodes(it)
	}
	all := make([]Deployment, 0, total)
	for _, it := range types {
		for n := 1; n <= maxNodes(it); n++ {
			all = append(all, Deployment{Type: it, Nodes: n})
		}
	}
	return &Space{deployments: all}
}

// NewSpaceFrom wraps an explicit deployment list.
func NewSpaceFrom(ds []Deployment) *Space {
	return &Space{deployments: append([]Deployment(nil), ds...)}
}

// Len returns the number of candidate deployments.
func (s *Space) Len() int { return len(s.deployments) }

// At returns the i-th deployment.
func (s *Space) At(i int) Deployment { return s.deployments[i] }

// All returns a copy of the deployment list.
func (s *Space) All() []Deployment {
	return append([]Deployment(nil), s.deployments...)
}

// Filter returns the subspace where keep is true.
func (s *Space) Filter(keep func(Deployment) bool) *Space {
	var out []Deployment
	for _, d := range s.deployments {
		if keep(d) {
			out = append(out, d)
		}
	}
	return &Space{deployments: out}
}

// Types returns the distinct instance types present, in first-seen order.
func (s *Space) Types() []InstanceType {
	seen := make(map[string]bool)
	var out []InstanceType
	for _, d := range s.deployments {
		if !seen[d.Type.Name] {
			seen[d.Type.Name] = true
			out = append(out, d.Type)
		}
	}
	return out
}

// MaxNodes returns the largest node count present for the given type
// (0 when the type is absent).
func (s *Space) MaxNodes(typeName string) int {
	max := 0
	for _, d := range s.deployments {
		if d.Type.Name == typeName && d.Nodes > max {
			max = d.Nodes
		}
	}
	return max
}

// Features encodes a deployment for the GP surrogate: log-scaled hardware
// attributes so that distances are meaningful across a catalog whose
// prices span 40×. The encoding is shared by every BO searcher so
// comparisons are apples-to-apples.
func Features(d Deployment) []float64 {
	return []float64{
		log2(float64(d.Type.VCPUs)),
		float64(d.Type.GPUs),
		log2(d.Type.MemGiB),
		log2(d.Type.NetworkGbps + 1),
		log2(float64(d.Nodes)),
	}
}

// log2 keeps doublings equidistant, matching how instance families are
// sized; non-positive inputs map to 0.
func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}
