//go:build !amd64

package mat

// The four-lane kernels exist on amd64 only; the scalar loops are the
// one path here.
var solveArmed, laneCholArmed = false, false

// forwardSolveLanes solves nothing here; see lanes_amd64.go.
func forwardSolveLanes(l []float64, n int, y []float64, m int) {}

// factorLanes factors nothing here; see lanes_amd64.go.
func factorLanes(l, tris []float64, n int, off *[4]int, shift *[4]float64) int { return 15 }

// solveDotLanes solves nothing here; see lanes_amd64.go.
func solveDotLanes(l []float64, n int, y, w []float64, dst *[4]float64) {}
