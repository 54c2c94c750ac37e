//go:build !amd64

package gp

// ardArmed is false: the four-lane distance kernel exists on amd64 only,
// and the scalar loops are the one path here.
var ardArmed = false

// sqDistDiffLanes writes nothing here; see ard_amd64.go.
func sqDistDiffLanes(dst, diffs, lens []float64) int { return 0 }

// sqDistRowLanes writes nothing here; see ard_amd64.go.
func sqDistRowLanes(dst, x, qs, lens []float64) int { return 0 }
