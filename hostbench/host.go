package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident set. Where that is not possible the mark keeps
// covering the whole process, which only makes later readings larger.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set (VmHWM), or 0 where
// /proc does not report it.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuStat is the host-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var s cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s, nil
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings.
func (s cpuStat) stealFrac(before cpuStat) float64 {
	if d := s.total - before.total; d > 0 {
		return (s.steal - before.steal) / d
	}
	return 0
}
