//go:build !amd64

package gp

// maternArmed is false: the four-lane kernel exists on amd64 only, and
// fromR2 is the one path here.
var maternArmed = false

// maternLanes writes nothing here; see matern_amd64.go.
func maternLanes(r2 []float64, sig2 float64) int { return 0 }
