package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"lockdown/internal/cluster"
	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/report"
)

// workload is one configuration of the suite run. Every workload runs
// all experiments at the given flow scale and seed.
type workload struct {
	name    string
	scale   float64
	workers int    // engine worker count, capped at the CPU count
	budget  int64  // dataset cache budget in bytes (0 = no spilling)
	wire    bool   // serve flows through a 2-shard in-process IPFIX cluster
	chaos   string // fault-injection spec ("" = clean wire)
}

var workloads = []workload{
	{name: "suite", scale: 1, workers: 2},
	{name: "suite-spill", scale: 1, workers: 1, budget: 32 << 20},
	{name: "wire", scale: 1, workers: 2, wire: true},
	{name: "wire-lossy", scale: 0.05, workers: 1, wire: true, chaos: lossySpec},
}

// lossySpec is wire-lossy's fault schedule. Its chaos seed is fixed
// rather than taken from the workload seed: a bucket's datagram count
// does not depend on the model seed, so a fixed chaos seed drops the
// same datagrams on every run. With the chaos seed following the
// workload seed, the run's wall time was a random sum of about a
// hundred retry waits (150 ms END grace each, plus the odd 5 s attempt
// timeout) and spread 15.0-21.8 s over five seeds.
const lossySpec = "drop=0.01,dup=0.002,seed=7"

// wireShards is the pump stream count of the wire workloads.
const wireShards = 2

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineWorkers is the engine worker count: the workload's, but never
// more than the machine's CPUs.
func (w workload) engineWorkers() int { return min(w.workers, runtime.NumCPU()) }

// instance is one set-up workload: the engine, its cluster on the wire
// workloads, and the registry its instruments report to.
type instance struct {
	engine  *core.Engine
	cluster *cluster.Cluster
	reg     *obs.Registry
	cancel  context.CancelFunc
}

// setup builds the workload the way cmd/lockdown does for `all` and
// `cluster`. A non-nil tracer turns on the program's tracing and wraps
// the engine's FlowSource in a tracedSource. cacheDir holds spilled
// segments on budgeted workloads; reg receives the run's instruments.
func (w workload) setup(seed int64, cacheDir string, tracer *obs.Tracer, reg *obs.Registry) (*instance, error) {
	in := &instance{reg: reg}
	opts := core.Options{FlowScale: w.scale, Seed: seed, CacheBudget: w.budget, Obs: reg, Tracer: tracer}
	if w.budget > 0 {
		opts.CacheDir = cacheDir
	}
	if !w.wire {
		if tracer == nil {
			in.engine = core.NewEngine(opts)
		} else {
			in.engine = core.NewEngineWithSource(opts, tracedSource{core.NewSyntheticSource(opts), tracer, catSynth})
		}
		return in, nil
	}
	spec := cluster.Spec{Shards: wireShards, Format: collector.FormatIPFIX, Options: opts}
	if w.chaos != "" {
		chaos, err := faultinject.ParseSpec(w.chaos)
		if err != nil {
			return nil, err
		}
		spec.Chaos = &chaos
		// As cmd/lockdown does under -chaos: a budget wide enough to
		// ride out any recoverable fault sequence.
		spec.FetchBudget = 60 * time.Second
	}
	c, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := c.Start(ctx); err != nil {
		cancel()
		c.Close()
		return nil, err
	}
	in.cluster, in.cancel = c, cancel
	var src core.FlowSource = c.Source()
	if tracer != nil {
		src = tracedSource{src, tracer, catReplay}
	}
	in.engine = core.NewEngineWithSource(opts, src)
	return in, nil
}

func (in *instance) close() {
	in.engine.Data().Close()
	if in.cluster != nil {
		in.cancel()
		in.cluster.Close()
	}
}

// sample is what one iteration (set-up, RunAll, render) measured.
type sample struct {
	setupS, wallS, cpuS, renderMS float64
	rt                            runtimeDelta

	digest     string            // whole-suite output digest
	expDigest  map[string]string // per-experiment output digests
	expWallMS  map[string]float64
	scanChunks int64

	cache       core.CacheStats
	degraded    int
	compactions int64

	// Wire workloads only: bridge totals, chaos relay totals and rows
	// the pumps exported.
	bridge   replay.Stats
	chaos    faultinject.Counts
	pumpRows int64
}

// iterate sets the workload up, runs the suite, renders it with
// report.WriteJSONAll and tears it down. Only RunAll plus rendering is
// timed as wall; the output digests are taken after the clock stops.
func (w workload) iterate(seed int64, cacheDir string, tracer *obs.Tracer) (sample, error) {
	var s sample
	reg := obs.NewRegistry()
	setupSpan := tracer.Start("setup", catBench)
	t0 := time.Now()
	in, err := w.setup(seed, cacheDir, tracer, reg)
	if err != nil {
		return s, err
	}
	s.setupS = time.Since(t0).Seconds()
	setupSpan.End()
	defer in.close()

	before := takeSnapshot()
	t1 := time.Now()
	results, err := in.engine.RunAll(context.Background(), w.engineWorkers())
	if err != nil {
		return s, err
	}
	renderSpan := tracer.Start("render", catBench)
	t2 := time.Now()
	var out bytes.Buffer
	if err := report.WriteJSONAll(&out, results); err != nil {
		return s, err
	}
	s.renderMS = float64(time.Since(t2)) / float64(time.Millisecond)
	renderSpan.End()
	s.wallS = time.Since(t1).Seconds()
	after := takeSnapshot()
	s.cpuS = after.cpu - before.cpu
	s.rt = before.delta(after)

	s.cache = in.engine.Data().Stats()
	s.degraded = len(in.engine.Data().DegradedKeys())
	s.compactions = in.reg.Counter("lockdown_flowstore_compactions_total", "").Value()
	if in.cluster != nil {
		st := in.cluster.Stats()
		s.bridge = st.Bridge
		if st.Chaos != nil {
			s.chaos = st.Chaos.Total
		}
		for _, sh := range st.Shards {
			s.pumpRows += sh.Pump.RowsSent
		}
	}
	s.expWallMS = make(map[string]float64, len(results))
	for _, r := range results {
		s.expWallMS[r.ID] = r.Metrics[core.MetricWallMS]
		s.scanChunks += int64(r.Metrics[core.MetricScanChunks])
	}
	s.digest, s.expDigest, err = digests(results)
	return s, err
}

// digests hashes the report.WriteJSONAll rendering of the results with
// the engine's runtime stamps (core.IsRuntimeMetric) removed, for the
// whole suite and per experiment. Equal digests mean byte-identical
// output.
func digests(results []*core.Result) (string, map[string]string, error) {
	stripped := make([]*core.Result, len(results))
	per := make(map[string]string, len(results))
	for i, r := range results {
		c := *r
		c.Metrics = make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			if !core.IsRuntimeMetric(k) {
				c.Metrics[k] = v
			}
		}
		stripped[i] = &c
		h := sha256.New()
		if err := report.WriteJSON(h, &c); err != nil {
			return "", nil, err
		}
		per[r.ID] = hex.EncodeToString(h.Sum(nil))
	}
	h := sha256.New()
	if err := report.WriteJSONAll(h, stripped); err != nil {
		return "", nil, err
	}
	return hex.EncodeToString(h.Sum(nil)), per, nil
}

// reference runs the in-memory engine (the `lockdown all` path) at the
// workload's seed and scale and returns its output digests: the value
// every workload's output must reproduce.
func (w workload) reference(seed int64) (string, map[string]string, error) {
	e := core.NewEngine(core.Options{FlowScale: w.scale, Seed: seed})
	defer e.Data().Close()
	results, err := e.RunAll(context.Background(), min(2, runtime.NumCPU()))
	if err != nil {
		return "", nil, err
	}
	return digests(results)
}
