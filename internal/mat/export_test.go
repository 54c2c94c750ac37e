package mat

// DisarmLanes turns this package's four-lane kernels off for the
// external tests, which drive them through internal/gp; restore puts the
// start-up setting back.
func DisarmLanes() (restore func()) {
	s, l := solveArmed, laneCholArmed
	solveArmed, laneCholArmed = false, false
	return func() { solveArmed, laneCholArmed = s, l }
}
