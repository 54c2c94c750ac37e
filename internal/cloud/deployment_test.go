package cloud

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeploymentHourlyCost(t *testing.T) {
	c := DefaultCatalog()
	d := NewDeployment(c.MustLookup("c5.4xlarge"), 10)
	if got := d.HourlyCost(); math.Abs(got-6.8) > 1e-9 {
		t.Fatalf("HourlyCost = %v, want 6.80", got)
	}
	if got := d.CostFor(30 * time.Minute); math.Abs(got-3.4) > 1e-9 {
		t.Fatalf("CostFor(30m) = %v, want 3.40", got)
	}
}

func TestNewDeploymentPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDeployment(DefaultCatalog().MustLookup("c5.large"), 0)
}

func TestDeploymentString(t *testing.T) {
	d := NewDeployment(DefaultCatalog().MustLookup("p2.xlarge"), 9)
	if d.String() != "9×p2.xlarge" || d.Key() != d.String() {
		t.Fatalf("String = %q", d.String())
	}
}

func TestSpaceEnumerates3100ScaleChoices(t *testing.T) {
	// The paper counts ~3,100 deployment choices from 62 scale-up
	// options × 50 scale-out. Our catalog is smaller but the limits
	// logic must count exactly: CPU types × 100 + GPU types × 50.
	c := DefaultCatalog()
	s := NewSpace(c, DefaultLimits)
	cpuTypes, gpuTypes := 0, 0
	for _, it := range c.Types() {
		if it.IsGPU() {
			gpuTypes++
		} else {
			cpuTypes++
		}
	}
	want := cpuTypes*100 + gpuTypes*50
	if s.Len() != want {
		t.Fatalf("space size = %d, want %d", s.Len(), want)
	}
}

func TestSpaceLimitsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace(DefaultCatalog(), SpaceLimits{MaxCPUNodes: 0, MaxGPUNodes: 1})
}

func TestSpaceFilter(t *testing.T) {
	s := NewSpace(DefaultCatalog(), SpaceLimits{MaxCPUNodes: 5, MaxGPUNodes: 5})
	only4x := s.Filter(func(d Deployment) bool { return d.Type.Name == "c5.4xlarge" })
	if only4x.Len() != 5 {
		t.Fatalf("filtered len = %d, want 5", only4x.Len())
	}
	if only4x.MaxNodes("c5.4xlarge") != 5 || only4x.MaxNodes("c5.large") != 0 {
		t.Fatal("MaxNodes wrong after filter")
	}
}

func TestSpaceTypesDistinct(t *testing.T) {
	s := NewSpace(DefaultCatalog(), SpaceLimits{MaxCPUNodes: 3, MaxGPUNodes: 3})
	types := s.Types()
	if len(types) != DefaultCatalog().Len() {
		t.Fatalf("types = %d, want %d", len(types), DefaultCatalog().Len())
	}
	seen := map[string]bool{}
	for _, it := range types {
		if seen[it.Name] {
			t.Fatalf("duplicate type %s", it.Name)
		}
		seen[it.Name] = true
	}
}

func TestSpaceFromAndAll(t *testing.T) {
	c := DefaultCatalog()
	ds := []Deployment{
		{Type: c.MustLookup("c5.xlarge"), Nodes: 1},
		{Type: c.MustLookup("c5.xlarge"), Nodes: 2},
	}
	s := NewSpaceFrom(ds)
	if s.Len() != 2 || s.At(1).Nodes != 2 {
		t.Fatal("NewSpaceFrom broken")
	}
	all := s.All()
	all[0].Nodes = 99
	if s.At(0).Nodes == 99 {
		t.Fatal("All must return a copy")
	}
}

func TestFeaturesDimensionAndMonotonicity(t *testing.T) {
	c := DefaultCatalog()
	small := Features(Deployment{Type: c.MustLookup("c5.xlarge"), Nodes: 1})
	big := Features(Deployment{Type: c.MustLookup("c5.18xlarge"), Nodes: 50})
	if len(small) != 5 || len(big) != 5 {
		t.Fatalf("feature dims = %d/%d, want 5", len(small), len(big))
	}
	for i := range small {
		if big[i] < small[i] {
			t.Errorf("feature %d must be monotone in hardware size: %v vs %v", i, big[i], small[i])
		}
	}
}

// Property: deployments at equal hourly cost have proportional node
// counts within a type (cost is linear in n).
func TestQuickHourlyCostLinear(t *testing.T) {
	c := DefaultCatalog()
	types := c.Types()
	f := func(typeIdx uint8, nRaw uint8) bool {
		it := types[int(typeIdx)%len(types)]
		n := int(nRaw%100) + 1
		d1 := NewDeployment(it, n)
		d2 := NewDeployment(it, 2*n)
		return math.Abs(d2.HourlyCost()-2*d1.HourlyCost()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A Space's encoding holds every deployment's Features row and Key, and
// maps duplicate keys to their first index; concurrent first calls share
// one encoding.
func TestSpaceEncoding(t *testing.T) {
	cat := DefaultCatalog()
	a := NewDeployment(cat.MustLookup("c5.xlarge"), 2)
	b := NewDeployment(cat.MustLookup("p3.2xlarge"), 3)
	sp := NewSpaceFrom([]Deployment{a, b, a, b, b})
	encs := make([]*Encoding, 4)
	var wg sync.WaitGroup
	for i := range encs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			encs[i] = sp.Encoding()
		}(i)
	}
	wg.Wait()
	e := encs[0]
	for _, other := range encs[1:] {
		if other != e {
			t.Fatal("concurrent Encoding calls built more than one encoding")
		}
	}
	if e.Dim != len(Features(a)) || len(e.Feats) != sp.Len()*e.Dim {
		t.Fatalf("dim %d with %d feature values for %d deployments", e.Dim, len(e.Feats), sp.Len())
	}
	wantFirst := []int{0, 1, 0, 1, 1}
	for i := 0; i < sp.Len(); i++ {
		d := sp.At(i)
		if !reflect.DeepEqual(e.Feats[i*e.Dim:(i+1)*e.Dim], Features(d)) || e.Keys[i] != d.Key() {
			t.Fatalf("deployment %d: row %v key %q, want %v %q", i, e.Feats[i*e.Dim:(i+1)*e.Dim], e.Keys[i], Features(d), d.Key())
		}
		if e.First[i] != wantFirst[i] || e.Index[d.Key()] != wantFirst[i] {
			t.Fatalf("deployment %d: first %d, index %d, want %d", i, e.First[i], e.Index[d.Key()], wantFirst[i])
		}
	}
	if len(e.Index) != 2 {
		t.Fatalf("index holds %d keys, want 2", len(e.Index))
	}
}
