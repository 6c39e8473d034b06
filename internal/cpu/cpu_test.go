package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestHasAVX2MatchesCPUInfo holds the CPUID check to the kernel's own
// list of CPU flags, where Linux gives one: a check that missed AVX2
// would leave every AVX2 kernel untested and unused, and one that
// claimed it wrongly would fault.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" && slices.Contains(strings.Fields(flags), "avx2") {
			listed = true
			break
		}
	}
	switch {
	case runtime.GOARCH != "amd64":
		if HasAVX2 {
			t.Fatalf("HasAVX2 on GOARCH=%s, which has no AVX2 kernel", runtime.GOARCH)
		}
	case listed && !HasAVX2:
		t.Fatal("/proc/cpuinfo lists avx2, but HasAVX2 is false")
	case !listed && HasAVX2:
		t.Fatal("HasAVX2 is true, but /proc/cpuinfo lists no avx2")
	}
}
