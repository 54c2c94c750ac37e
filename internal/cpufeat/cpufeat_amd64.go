package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the OS-enabled register state.
func xgetbv() (eax uint32)

func probe() (avx2, fma bool) {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&(1<<5) != 0
	return avx2, avx2 && ecx&fmaBit != 0
}
