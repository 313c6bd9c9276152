package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"lockdown/internal/core"
	"lockdown/internal/obs"
)

// suiteDigest runs the whole suite on an engine over src (nil = the
// engine's own generator) and returns its output digest.
func suiteDigest(t *testing.T, opts core.Options, src core.FlowSource) string {
	t.Helper()
	e := core.NewEngineWithSource(opts, src)
	defer e.Data().Close()
	results, err := e.RunAll(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := digests(results)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTracedSourceTransparent checks that wrapping the FlowSource in the
// tracing decorator leaves the output byte-identical, that its spans
// account for every batch, and that the seed reaches the model.
func TestTracedSourceTransparent(t *testing.T) {
	opts := core.Options{FlowScale: 0.05}
	plain := suiteDigest(t, opts, nil)

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	topts := opts
	topts.Tracer = tracer
	traced := suiteDigest(t, topts, tracedSource{core.NewSyntheticSource(topts), tracer, catSynth})
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("decorated digest %s, plain %s", traced, plain)
	}
	spans, err := parseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(spans)
	if sum.synthCalls == 0 || sum.synthRows == 0 || sum.expBusy == 0 {
		t.Fatalf("traced run recorded %d synth calls, %d rows, %.3fs of experiments", sum.synthCalls, sum.synthRows, sum.expBusy)
	}

	reseeded := opts
	reseeded.Seed = 7
	if d := suiteDigest(t, reseeded, nil); d == plain {
		t.Fatalf("seed 7 reproduced the default seed's digest %s", d)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 40},  // overlaps the first: 10..40 counts once
		{start: 90, end: 120}, // clipped to the parent: 10 of its 30
		{start: 150, end: 160},
	}
	if got := covered(parent, children); got != 40 {
		t.Fatalf("covered = %v, want 40", got)
	}
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %v, want 100", got)
	}
}

// TestSummarizeReconciles builds a one-worker span set by hand: layer
// time inside experiments plus analysis time equals experiment time, and
// a spill between experiments is reported as outside time.
func TestSummarizeReconciles(t *testing.T) {
	spans := []span{
		{name: "exp:a", cat: catExperiment, start: 0, end: 100},
		{name: "flow", cat: catSynth, start: 10, end: 30, rows: 5},
		{name: "cache-fault", cat: catCache, start: 40, end: 50},
		{name: "cache-spill", cat: catCache, start: 100, end: 120},
		{name: "exp:b", cat: catExperiment, start: 150, end: 200},
		{name: "vpn", cat: catSynth, start: 160, end: 170, rows: 7},
		{name: "cache-compact", cat: catCache, start: 180, end: 195},
		{name: "scan-chunk", cat: "scan", start: 150, end: 200},
	}
	s := summarize(spans)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if s.synthCalls != 2 || s.synthRows != 12 {
		t.Fatalf("synth calls %d rows %d, want 2 and 12", s.synthCalls, s.synthRows)
	}
	if !near(s.expBusy, 150e-6) || !near(s.analysisBusy, 95e-6) || !near(s.outsideBusy, 20e-6) {
		t.Fatalf("exp %v analysis %v outside %v, want 150e-6, 95e-6, 20e-6", s.expBusy, s.analysisBusy, s.outsideBusy)
	}
	layers := s.synthBusy + s.spillBusy + s.compactBusy + s.faultBusy
	if !near(layers, s.expBusy-s.analysisBusy+s.outsideBusy) {
		t.Fatalf("layer busy %v does not reconcile with exp %v - analysis %v + outside %v", layers, s.expBusy, s.analysisBusy, s.outsideBusy)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{368, 95},  // 18 samples beyond p95, only 3 beyond p99
		{4344, 99}, // 43 beyond p99, 4 beyond p99.9
		{10000, 99.9},
		{200, 95},
		{199, 90},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: the helpers sort a copy
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile modified its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	counts := []uint64{0, 98, 1, 1}
	bounds := []float64{0, 1, 2, 3, math.Inf(1)}
	if got := histogramPercentile(counts, bounds, 100, 98); got != 2 {
		t.Errorf("histogramPercentile p98 = %v, want 2 (upper bound of [1,2))", got)
	}
	if got := histogramPercentile(counts, bounds, 100, 99); got != 3 {
		t.Errorf("histogramPercentile p99 = %v, want 3", got)
	}
	if got := histogramPercentile(counts, bounds, 100, 100); got != 3 {
		t.Errorf("histogramPercentile p100 = %v, want 3 (open bucket reports its lower bound)", got)
	}
}

func TestCheckCountsOperations(t *testing.T) {
	ref := map[string]string{"fig1": "a", "fig2": "b"}
	good := sample{digest: "d", expDigest: map[string]string{"fig1": "a", "fig2": "b"}}
	bad := sample{digest: "x", expDigest: map[string]string{"fig1": "a", "fig2": "z"}}
	if r := check([]sample{good, good}, false, "d", ref); !r.Correct || r.Attempted != 4 || r.Failed != 0 {
		t.Fatalf("clean run: %+v", r)
	}
	if r := check([]sample{good, bad}, false, "d", ref); r.Correct || r.Attempted != 4 || r.Failed != 1 {
		t.Fatalf("one mismatched experiment: %+v", r)
	}
	leaked := good
	leaked.cache.Pinned = 1
	if r := check([]sample{leaked}, false, "d", ref); r.Correct {
		t.Fatal("a leaked pin passed the check")
	}
	wire := good
	wire.bridge.Keys, wire.bridge.DegradedStreams = 10, 1
	if r := check([]sample{wire}, true, "d", ref); r.Correct || r.Attempted != 11 || r.Failed != 1 {
		t.Fatalf("wire run with one degraded bucket: %+v", r)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the emitted metric names and units
// and the workload list in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	slices.Sort(names)
	slices.Sort(ours)
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	s := sample{expDigest: map[string]string{}}
	compare := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(want), len(got))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): emitted as %+v, present=%v", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics([]sample{s}, []float64{1}, 1))
	compare("per_layer", spec.PerLayer, layerMetrics(workloads[0], []sample{s}, traceSummary{}))
}
