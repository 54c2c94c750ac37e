package mat

// DisarmLanes turns this package's four-lane kernels off for the
// external tests, which drive them through internal/gp; restore puts the
// start-up setting back.
func DisarmLanes() (restore func()) {
	c, s := cholArmed, solveArmed
	cholArmed, solveArmed = false, false
	return func() { cholArmed, solveArmed = c, s }
}
