package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Span categories. The program's own tracer emits "experiment" (exp:*),
// "cache" (cache-spill, cache-fault, cache-compact), "scan", "bridge"
// and "engine" spans; the benchmark adds "synth" and "replay" spans
// around each FlowSource call and "bench" spans around set-up and
// rendering.
const (
	catExperiment = "experiment"
	catCache      = "cache"
	catSynth      = "synth"
	catReplay     = "replay"
	catBench      = "bench"
)

// span is one finished trace span, in microseconds since the tracer's
// epoch.
type span struct {
	name, cat  string
	start, end float64
	rows       int64 // "rows" argument (FlowSource spans), 0 otherwise
}

func (s span) dur() float64 { return s.end - s.start }

// within reports whether c lies inside p's interval.
func within(p, c span) bool { return c.start >= p.start && c.end <= p.end }

// parseTrace reads the complete ("X") events of a Chrome trace_event
// document as written by obs.Tracer.
func parseTrace(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := span{name: ev.Name, cat: ev.Cat, start: ev.TS, end: ev.TS + ev.Dur}
		if rows, ok := ev.Args["rows"].(float64); ok {
			s.rows = int64(rows)
		}
		out = append(out, s)
	}
	return out, nil
}

// covered returns how much of p's interval the union of the children's
// intervals covers; overlapping children count once.
func covered(p span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			if i > 0 {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its
// child spans cover.
func selfTime(p span, children []span) float64 { return p.dur() - covered(p, children) }

// isLayer reports whether a span is time spent below core: a FlowSource
// call (synthesis or wire fetch) or a flowstore operation.
func isLayer(s span) bool {
	return s.cat == catSynth || s.cat == catReplay || s.cat == catCache
}

// traceSummary is what the traced run's spans say about each layer. All
// times are in seconds; the per-call durations are in microseconds.
type traceSummary struct {
	synthCalls, synthRows                  int64
	synthBusy, flowBusy, vpnBusy, compBusy float64
	synthCallsUS                           []float64

	replayCalls int64
	replayBusy  float64
	replayMS    []float64

	spillBusy, compactBusy, faultBusy float64
	faultUS                           []float64

	expBusy, analysisBusy, outsideBusy float64

	// overheadS is the traced iteration's wall time minus the untraced
	// median; the caller fills it in.
	overheadS float64
}

// summarize sums each layer's spans and splits the experiment spans
// into analysis (self) time and the layer time they contain.
//
// An experiment's analysis time is its span minus the union of the
// layer spans inside its interval. At one worker every span of a run
// sits on one goroutine, so this is exact self time and
//
//	synth + flowstore busy = (exp busy - analysis busy) + outside busy
//
// where outside busy is layer time outside every experiment (spills
// that run when an experiment's pins are released). With two workers a
// concurrent experiment's layer spans also fall inside the interval, so
// analysis time is a lower bound there.
func summarize(spans []span) traceSummary {
	var s traceSummary
	var exps, layers []span
	for _, sp := range spans {
		d := sp.dur() / 1e6
		switch sp.cat {
		case catExperiment:
			exps = append(exps, sp)
			s.expBusy += d
		case catSynth:
			s.synthCalls++
			s.synthRows += sp.rows
			s.synthBusy += d
			s.synthCallsUS = append(s.synthCallsUS, sp.dur())
			switch sp.name {
			case "flow":
				s.flowBusy += d
			case "vpn":
				s.vpnBusy += d
			case "component":
				s.compBusy += d
			}
		case catReplay:
			s.replayCalls++
			s.replayBusy += d
			s.replayMS = append(s.replayMS, sp.dur()/1e3)
		case catCache:
			switch sp.name {
			case "cache-spill":
				s.spillBusy += d
			case "cache-compact":
				s.compactBusy += d
			case "cache-fault":
				s.faultBusy += d
				s.faultUS = append(s.faultUS, sp.dur())
			}
		}
		if isLayer(sp) {
			layers = append(layers, sp)
		}
	}
	for _, e := range exps {
		var inside []span
		for _, l := range layers {
			if within(e, l) {
				inside = append(inside, l)
			}
		}
		s.analysisBusy += selfTime(e, inside) / 1e6
	}
	for _, l := range layers {
		in := false
		for _, e := range exps {
			if within(e, l) {
				in = true
				break
			}
		}
		if !in {
			s.outsideBusy += l.dur() / 1e6
		}
	}
	return s
}
