package mat

import "testing"

// TestAVX2SelectionRequiresFMA checks the CPUID decision behind
// archKernels: the avx2 set, whose MulInto32 kernel executes VFMADD, is
// picked only when the CPU reports AVX2 and FMA and the OS saves YMM state.
func TestAVX2SelectionRequiresFMA(t *testing.T) {
	const ecx = cpuidOSXSAVE | cpuidAVX | cpuidFMA
	cases := []struct {
		name             string
		ecx1, xcr0, ebx7 uint32
		want             bool
	}{
		{"AVX2 and FMA", ecx, xcr0YMMXMM, cpuidAVX2, true},
		{"AVX2 without FMA", ecx &^ cpuidFMA, xcr0YMMXMM, cpuidAVX2, false},
		{"FMA without AVX2", ecx, xcr0YMMXMM, 0, false},
		{"no AVX", ecx &^ cpuidAVX, xcr0YMMXMM, cpuidAVX2, false},
		{"OS does not save YMM", ecx, 0b010, cpuidAVX2, false},
	}
	for _, c := range cases {
		if got := avx2FMAUsable(c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: avx2FMAUsable = %v, want %v", c.name, got, c.want)
		}
	}
}
