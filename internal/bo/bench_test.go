package bo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
)

// benchDeployments returns n distinct deployments cycling over the
// catalog's types and growing node counts.
func benchDeployments(n int) []cloud.Deployment {
	types := cloud.DefaultCatalog().Types()
	ds := make([]cloud.Deployment, n)
	for i := range ds {
		ds[i] = cloud.Deployment{Type: types[i%len(types)], Nodes: i/len(types) + 1}
	}
	return ds
}

// BenchmarkSurrogateObserve times conditioning the (n+1)'th observation
// into a surrogate already conditioned on n, without the hyperparameter
// refit Observe adds: kernel row against the distance cache plus a
// Cholesky extension — O(n²), the per-pair step of ObserveAll. Doubling
// n should roughly quadruple ns/op; a full refactor per observation is
// O(n³) and would octuple.
func BenchmarkSurrogateObserve(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDeployments(n + 1)
			ys := make([]float64, n+1)
			for i := range ys {
				ys[i] = math.Sin(float64(i) * 0.7)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewSurrogate(nil, rand.New(rand.NewSource(1)))
				for j := 0; j < n; j++ {
					if err := s.condition(ds[j], ys[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.condition(ds[n], ys[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
