// Package cpufeat reports the x86 vector features that the four-lane
// numeric kernels in internal/gp and internal/mat need. It is the one
// CPUID/XGETBV probe both packages read. A feature counts only when the
// CPU offers it and the OS saves the YMM registers it uses; each kernel
// still runs its own start-up self-check before it arms.
package cpufeat

// AVX2 reports AVX2 with OS YMM state; FMA reports FMA3 on top of it.
// Both are false on every GOARCH but amd64.
var AVX2, FMA = probe()
