package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// environment is the machine and toolchain a result set was measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOAMD64    string `json:"goamd64"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				env.GOAMD64 = s.Value
			}
		}
	}
	return env
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runtimeSnapshot is the Go runtime's cumulative counters at one instant;
// the difference of two snapshots is the runtime layer's share of the
// work between them.
type runtimeSnapshot struct {
	cpu         float64 // process user+sys seconds
	allocBytes  uint64
	gcCycles    uint64
	gcCPU       float64 // seconds
	gcPauseNs   uint64
	schedCounts []uint64 // /sched/latencies:seconds bucket counts
	schedBounds []float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

// takeSnapshot reads the counters. It stops the world briefly (for the
// GC pause total), so callers take it outside timed sections.
func takeSnapshot() runtimeSnapshot {
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := samples[3].Value.Float64Histogram()
	return runtimeSnapshot{
		cpu:         cpuSeconds(),
		allocBytes:  samples[0].Value.Uint64(),
		gcCycles:    samples[1].Value.Uint64(),
		gcCPU:       samples[2].Value.Float64(),
		gcPauseNs:   ms.PauseTotalNs,
		schedCounts: append([]uint64(nil), h.Counts...),
		schedBounds: h.Buckets,
	}
}

// runtimeDelta is the runtime layer's activity between two snapshots.
type runtimeDelta struct {
	allocMB, gcCycles, gcCPUS, gcPauseMS, schedP99US float64
}

func (a runtimeSnapshot) delta(b runtimeSnapshot) runtimeDelta {
	d := runtimeDelta{
		allocMB:   float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles:  float64(b.gcCycles - a.gcCycles),
		gcCPUS:    b.gcCPU - a.gcCPU,
		gcPauseMS: float64(b.gcPauseNs-a.gcPauseNs) / 1e6,
	}
	counts := make([]uint64, len(b.schedCounts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
		total += counts[i]
	}
	d.schedP99US = histogramPercentile(counts, b.schedBounds, total, 99) * 1e6
	return d
}

// histogramPercentile returns the upper bound of the bucket holding the
// p-th percentile of a runtime/metrics histogram (the lower bound when
// that bucket is open-ended), or 0 for an empty histogram.
func histogramPercentile(counts []uint64, bounds []float64, total uint64, p float64) float64 {
	if total == 0 {
		return 0
	}
	want := uint64(rank(int(total), p))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			hi := bounds[i+1]
			if math.IsInf(hi, 1) {
				return bounds[i]
			}
			return hi
		}
	}
	return bounds[len(bounds)-1]
}
