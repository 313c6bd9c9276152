// Command perfbench is the repository benchmark. It runs one workload of
// the lockdown experiment suite through the public calls cmd/lockdown
// makes (core.NewEngine / core.NewEngineWithSource, cluster.New + Start
// + Source, Engine.RunAll, report.WriteJSONAll), checks that the output
// is byte-identical to the in-memory engine's at the same seed and
// scale, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, medians over as many
// untraced iterations as fit in --seconds. With --trace 1 it reports the
// per-layer metrics: counts and program stamps from the same untraced
// iterations, times from one extra traced iteration. See README.md for
// the workloads and which layer metric moves which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lockdown/internal/obs"
)

// buildDir holds everything a run writes: spilled segments and traces.
// run.sh builds the driver there too.
const buildDir = ".bench_build"

// setupReps is how many extra set-ups (each torn down unused) a run
// times before each iteration, so setup_s is a median of many taken
// across the whole run rather than at process start only.
const setupReps = 200

func main() {
	name := flag.String("workload", "", "workload: suite, suite-spill, wire or wire-lossy")
	seed := flag.Int64("seed", 0, "model seed (also the chaos seed of wire-lossy); 0 keeps the default model seed")
	seconds := flag.Float64("seconds", 20, "how long to repeat untraced iterations (at least one runs)")
	trace := flag.Int("trace", 0, "0: print end-to-end metrics; 1: print per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload suite|suite-spill|wire|wire-lossy --seed n --seconds s --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, seed int64, dur time.Duration, traced bool) error {
	cacheDir := filepath.Join(buildDir, fmt.Sprintf("spill-%d", os.Getpid()))
	if w.budget > 0 {
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(cacheDir)
	}

	var setups []float64
	var samples []sample
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < dur {
		for i := 0; i < setupReps; i++ {
			t := time.Now()
			in, err := w.setup(seed, cacheDir, nil, obs.NewRegistry())
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			in.close()
		}
		w.settle()
		s, err := w.iterate(seed, cacheDir, nil)
		if err != nil {
			return fmt.Errorf("%s iteration %d: %w", w.name, len(samples)+1, err)
		}
		samples = append(samples, s)
		setups = append(setups, s.setupS)
	}
	peakRSS := peakRSSMB()

	var tr *traceSummary
	checked := samples[:len(samples):len(samples)]
	if traced {
		w.settle()
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		s, err := w.iterate(seed, cacheDir, tracer)
		if err != nil {
			return fmt.Errorf("%s traced iteration: %w", w.name, err)
		}
		if err := tracer.Close(); err != nil {
			return err
		}
		spans, err := parseTrace(buf.Bytes())
		if err != nil {
			return err
		}
		sum := summarize(spans)
		sum.overheadS = s.wallS - median(field(samples, func(s sample) float64 { return s.wallS }))
		tr = &sum
		checked = append(checked, s)
		if err := writeTrace(w.name, seed, buf.Bytes()); err != nil {
			return err
		}
	}

	refDigest, refExp := samples[0].digest, samples[0].expDigest
	if w.wire || w.budget > 0 {
		// An unbudgeted in-memory workload is itself the reference run;
		// every other workload must reproduce it.
		var err error
		if refDigest, refExp, err = w.reference(seed); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
	}
	res := check(checked, w.wire, refDigest, refExp)
	if traced {
		res.Metrics = layerMetrics(w, samples, *tr)
	} else {
		res.Metrics = endToEndMetrics(samples, setups, peakRSS)
	}

	info := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"iterations": len(samples),
		"traced":     traced,
		"digest":     samples[0].digest,
		"reference":  refDigest,
		"env":        currentEnvironment(),
	}
	printSummary(w, seed, samples, tr, res)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(res)
}

// quiesce is the pause before each iteration of a spilling workload.
// Back to back, a spill iteration ran 30-50% slower than one started
// after a pause (6.5-7.0 s against 4.0-4.7 s at scale 1 on a 2-vCPU
// VM): the kernel is still reclaiming and reporting the memory the
// previous iteration's segments and mappings freed. The in-memory and
// wire workloads showed no such effect, so they run back to back and
// fit three times as many iterations.
const quiesce = 3 * time.Second

// settle collects the previous iteration's garbage and, on a spilling
// workload, lets the machine go idle, so every iteration starts from the
// same state. Freed heap is not returned to the OS early: on a VM that
// hands free pages back to the host, touching them again made
// iterations slower and noisier.
func (w workload) settle() {
	runtime.GC()
	if w.budget > 0 {
		time.Sleep(quiesce)
	}
}

// field extracts one value per sample.
func field(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// check compares every iteration's output with the reference and
// verifies the run left no pinned batches and served no degraded keys.
// Operations are experiments on the suite workloads and wire buckets on
// the wire workloads.
func check(samples []sample, wire bool, refDigest string, refExp map[string]string) result {
	res := result{Correct: true}
	for _, s := range samples {
		mismatched := int64(0)
		for id, d := range s.expDigest {
			if refExp[id] != d {
				mismatched++
			}
		}
		if s.digest != refDigest || len(s.expDigest) != len(refExp) || s.cache.Pinned != 0 || s.degraded != 0 || s.bridge.DegradedStreams != 0 {
			res.Correct = false
		}
		if wire {
			res.Attempted += s.bridge.Keys + s.bridge.DegradedStreams
			res.Failed += s.bridge.DegradedStreams
		} else {
			res.Attempted += int64(len(s.expDigest))
			res.Failed += mismatched
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}

func endToEndMetrics(samples []sample, setups []float64, peakRSS float64) map[string]metric {
	med := func(f func(sample) float64) float64 { return median(field(samples, f)) }
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {med(func(s sample) float64 { return s.wallS }), "s"},
		"cpu_s":       {med(func(s sample) float64 { return s.cpuS }), "s"},
		"peak_rss_mb": {peakRSS, "MB"},
		"alloc_mb":    {med(func(s sample) float64 { return s.rt.allocMB }), "MB"},
	}
}

// trackedExperiments are the experiments whose wall time is reported
// per layer: the slowest of the suite at scale 1.
var trackedExperiments = []string{"fig7a", "fig7b", "fig12", "fig10", "fig9", "fig8", "fig1", "fig5"}

// layerMetrics assembles the per-layer metrics: counts and program
// stamps are medians over the untraced iterations (the traced run's
// FlowSource decorator changes the cache's hit pattern), times come
// from the traced iteration's spans.
func layerMetrics(w workload, samples []sample, tr traceSummary) map[string]metric {
	med := func(f func(sample) float64) float64 { return median(field(samples, f)) }
	count := func(v float64) metric { return metric{v, "count"} }
	ratio := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{num / den, "ratio"}
	}
	hits := med(func(s sample) float64 { return float64(s.cache.Hits) })
	misses := med(func(s sample) float64 { return float64(s.cache.Misses) })
	wall := med(func(s sample) float64 { return s.wallS })
	cpu := med(func(s sample) float64 { return s.cpuS })
	m := map[string]metric{
		"synth.calls":            count(float64(tr.synthCalls)),
		"synth.rows":             count(float64(tr.synthRows)),
		"synth.busy_s":           {tr.synthBusy, "s"},
		"synth.flow_busy_s":      {tr.flowBusy, "s"},
		"synth.vpn_busy_s":       {tr.vpnBusy, "s"},
		"synth.component_busy_s": {tr.compBusy, "s"},
		"synth.call_p50_us":      {percentile(tr.synthCallsUS, 50), "us"},
		"synth.call_p99_us":      {percentile(tr.synthCallsUS, 99), "us"},

		"core.cache_hits":          count(hits),
		"core.cache_misses":        count(misses),
		"core.cache_hit_ratio":     ratio(hits, hits+misses),
		"core.exp_busy_s":          {tr.expBusy, "s"},
		"core.analysis_busy_s":     {tr.analysisBusy, "s"},
		"core.layer_outside_exp_s": {tr.outsideBusy, "s"},
		"core.scan_chunks":         count(med(func(s sample) float64 { return float64(s.scanChunks) })),
		"core.parallel_efficiency": ratio(cpu, wall*float64(w.engineWorkers())),

		"flowstore.spills":         count(med(func(s sample) float64 { return float64(s.cache.Spills) })),
		"flowstore.faults":         count(med(func(s sample) float64 { return float64(s.cache.Faults) })),
		"flowstore.regens":         count(med(func(s sample) float64 { return float64(s.cache.Regens) })),
		"flowstore.compactions":    count(med(func(s sample) float64 { return float64(s.compactions) })),
		"flowstore.spilled_mb":     {med(func(s sample) float64 { return float64(s.cache.SpilledBytes) / (1 << 20) }), "MB"},
		"flowstore.spill_busy_s":   {tr.spillBusy, "s"},
		"flowstore.compact_busy_s": {tr.compactBusy, "s"},
		"flowstore.fault_busy_s":   {tr.faultBusy, "s"},
		"flowstore.fault_p50_us":   {percentile(tr.faultUS, 50), "us"},
		"flowstore.fault_p95_us":   {percentile(tr.faultUS, 95), "us"},

		"replay.fetch_busy_s": {tr.replayBusy, "s"},
		"replay.fetch_p50_ms": {percentile(tr.replayMS, 50), "ms"},
		"replay.fetch_p99_ms": {percentile(tr.replayMS, 99), "ms"},

		"runtime.gc_cycles":            count(med(func(s sample) float64 { return s.rt.gcCycles })),
		"runtime.gc_cpu_s":             {med(func(s sample) float64 { return s.rt.gcCPUS }), "s"},
		"runtime.gc_pause_total_ms":    {med(func(s sample) float64 { return s.rt.gcPauseMS }), "ms"},
		"runtime.sched_latency_p99_us": {med(func(s sample) float64 { return s.rt.schedP99US }), "us"},

		"report.render_ms": {med(func(s sample) float64 { return s.renderMS }), "ms"},
		"trace.overhead_s": {tr.overheadS, "s"},
	}
	for _, id := range trackedExperiments {
		m["exp."+id+".wall_ms"] = metric{med(func(s sample) float64 { return s.expWallMS[id] }), "ms"}
	}

	rows := med(func(s sample) float64 { return float64(s.bridge.Rows) })
	retries := med(func(s sample) float64 { return float64(s.bridge.Retries) })
	lost := med(func(s sample) float64 { return float64(s.bridge.LostRows) })
	orphan := med(func(s sample) float64 { return float64(s.bridge.OrphanRows) })
	dropped := med(func(s sample) float64 { return float64(s.chaos.Dropped) })
	duplicated := med(func(s sample) float64 { return float64(s.chaos.Duplicated) })
	m["replay.fetches"] = count(med(func(s sample) float64 { return float64(s.bridge.Keys) }))
	m["replay.rows"] = count(rows)
	m["replay.retries"] = count(retries)
	m["replay.lost_rows"] = count(lost)
	m["replay.orphan_rows"] = count(orphan)
	m["replay.decode_errors"] = count(med(func(s sample) float64 { return float64(s.bridge.DecodeErrors) }))
	m["replay.pump_rows_sent"] = count(med(func(s sample) float64 { return float64(s.pumpRows) }))
	m["replay.useful_row_ratio"] = ratio(rows, rows+lost+orphan)
	m["replay.retries_per_fault"] = ratio(retries, dropped+duplicated)
	m["faultinject.datagrams"] = count(med(func(s sample) float64 { return float64(s.chaos.Seen) }))
	m["faultinject.dropped"] = count(dropped)
	m["faultinject.duplicated"] = count(duplicated)
	return m
}

// writeTrace stores the traced iteration's Chrome trace (program and
// benchmark spans on one clock) under buildDir/traces.
func writeTrace(name string, seed int64, data []byte) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), data, 0o644)
}

// printSummary writes a human-readable account of the run to stderr.
func printSummary(w workload, seed int64, samples []sample, tr *traceSummary, res result) {
	e := os.Stderr
	env := currentEnvironment()
	fmt.Fprintf(e, "perfbench: %s seed=%d, %d untraced iterations, %d engine workers; %d CPUs (GOMAXPROCS %d), %s, %s, GOAMD64=%s\n",
		w.name, seed, len(samples), w.engineWorkers(), env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.GOAMD64)
	walls := field(samples, func(s sample) float64 { return s.wallS })
	cpus := field(samples, func(s sample) float64 { return s.cpuS })
	fmt.Fprintf(e, "perfbench: wall_s per iteration %.3f, cpu_s %.3f\n", walls, cpus)
	s := samples[0]
	fmt.Fprintf(e, "perfbench: output digest %s, correct=%v (%d attempted, %d failed)\n", s.digest, res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(e, "perfbench: cache %d hits, %d misses, %d spills, %d faults, %d compactions\n",
		s.cache.Hits, s.cache.Misses, s.cache.Spills, s.cache.Faults, s.compactions)
	if w.wire {
		b, c := s.bridge, s.chaos
		fmt.Fprintf(e, "perfbench: wire %d buckets, %d rows, %d retries, %d lost, %d orphan rows; chaos %d datagrams, %d dropped, %d duplicated\n",
			b.Keys, b.Rows, b.Retries, b.LostRows, b.OrphanRows, c.Seen, c.Dropped, c.Duplicated)
	}
	if tr == nil {
		return
	}
	tail := func(n int) string { return fmt.Sprintf("%d samples support p%g", n, tailPercentile(n)) }
	fmt.Fprintf(e, "perfbench: traced: exp %.3fs = analysis %.3fs + layers inside; synth %.3fs, spill %.3fs, compact %.3fs, fault %.3fs, fetch %.3fs, outside experiments %.3fs\n",
		tr.expBusy, tr.analysisBusy, tr.synthBusy, tr.spillBusy, tr.compactBusy, tr.faultBusy, tr.replayBusy, tr.outsideBusy)
	fmt.Fprintf(e, "perfbench: traced: synth calls %s; faults %s; fetches %s\n",
		tail(len(tr.synthCallsUS)), tail(len(tr.faultUS)), tail(len(tr.replayMS)))
}
