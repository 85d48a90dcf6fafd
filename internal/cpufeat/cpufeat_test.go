package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Linux lists in /proc/cpuinfo the CPU flags programs may use, AVX2 only
// when the kernel saves the YMM state. AVX2 must agree with it: a check that
// said no by mistake would leave the kernels' assembly silently unused, and
// its tests skipped; one that said yes by mistake would fault.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2() {
			t.Fatalf("AVX2 reported on %s", runtime.GOARCH)
		}
		return
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			if want := slices.Contains(strings.Fields(flags), "avx2"); AVX2() != want {
				t.Fatalf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", AVX2(), want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
