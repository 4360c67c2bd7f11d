package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
			if !ok {
				continue
			}
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

const schedLatencies = "/sched/latencies:seconds"

// runtimeSnap is the Go runtime state the traced run differences.
type runtimeSnap struct {
	numGC      uint32
	pauseNs    uint64
	totalAlloc uint64
	sched      *metrics.Float64Histogram
}

func takeRuntimeSnap() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	snap := runtimeSnap{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		snap.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return snap
}

// runtimeDelta accumulates runtime activity over the traced reps only.
type runtimeDelta struct {
	gcCycles   uint64
	pauseNs    uint64
	allocBytes uint64
	schedCount []uint64
	buckets    []float64
}

func (d *runtimeDelta) add(before, after runtimeSnap) {
	d.gcCycles += uint64(after.numGC - before.numGC)
	d.pauseNs += after.pauseNs - before.pauseNs
	d.allocBytes += after.totalAlloc - before.totalAlloc
	if before.sched == nil || after.sched == nil {
		return
	}
	if d.schedCount == nil {
		d.schedCount = make([]uint64, len(after.sched.Counts))
		d.buckets = after.sched.Buckets
	}
	for i := range d.schedCount {
		d.schedCount[i] += after.sched.Counts[i] - before.sched.Counts[i]
	}
}

// schedP99Micros returns the upper edge of the histogram bucket holding
// the 99th percentile of goroutine scheduling latency, in microseconds.
func (d *runtimeDelta) schedP99Micros() float64 {
	var n uint64
	for _, c := range d.schedCount {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := uint64(float64(n) * 0.99)
	var seen uint64
	for i, c := range d.schedCount {
		seen += c
		if seen > target {
			// Counts[i] spans Buckets[i]..Buckets[i+1]; the top bucket is
			// open-ended, so fall back to its lower edge.
			if edge := d.buckets[i+1]; !math.IsInf(edge, 1) {
				return edge * 1e6
			}
			return d.buckets[i] * 1e6
		}
	}
	return 0
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealShare is the share of the machine's CPU time over wall that steal
// ticks amount to.
func stealShare(ticks uint64, wall time.Duration) float64 {
	return float64(ticks) / clockTicks / (wall.Seconds() * float64(runtime.NumCPU()))
}

// stealTicks returns the machine's cumulative CPU steal time, the time
// the hypervisor ran something else while a vCPU had work, in clock
// ticks summed over CPUs (0 where /proc/stat is unavailable).
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
