// Package cpu reports the CPU features that select the assembly kernels
// of packages nn and vec. It is the one place that asks the CPU: each
// kernel's package keeps its own switch, started from HasAVX2.
package cpu

// HasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (OSXSAVE set, and XCR0
// enabling both the SSE and the AVX state). It is false off amd64.
var HasAVX2 = hasAVX2()
