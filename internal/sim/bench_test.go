package sim_test

import (
	"testing"

	"lbica/internal/perf"
)

// The kernel and rank-sampling benchmarks delegate to internal/perf so `go test -bench` and
// `lbicabench -perf` measure the exact same bodies.

func BenchmarkEngineScheduleFire(b *testing.B)   { perf.BenchKernelScheduleFire(b) }
func BenchmarkEngineScheduleCancel(b *testing.B) { perf.BenchKernelScheduleCancel(b) }
func BenchmarkZipfNext(b *testing.B)             { perf.BenchZipfNext(b) }
