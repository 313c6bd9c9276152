package main

import (
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// tracedSource is a core.FlowSource decorator: it forwards every call
// unchanged and records one span per call on the tracer, in category cat
// ("synth" for the in-process generator, "replay" for the wire bridge),
// named after the method and carrying the batch's row count.
type tracedSource struct {
	src    core.FlowSource
	tracer *obs.Tracer
	cat    string
}

// endSpan closes a FlowSource call's span with the batch's row count.
func endSpan(sp obs.Span, b *flowrec.Batch, err error) (*flowrec.Batch, error) {
	rows := 0
	if err == nil {
		rows = b.Len()
	}
	sp.EndArgs(map[string]any{"rows": rows})
	return b, err
}

func (s tracedSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	sp := s.tracer.Start("flow", s.cat)
	b, err := s.src.FlowBatch(vp, hour)
	return endSpan(sp, b, err)
}

func (s tracedSource) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	sp := s.tracer.Start("vpn", s.cat)
	b, err := s.src.VPNFlowBatch(vp, hour)
	return endSpan(sp, b, err)
}

func (s tracedSource) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	sp := s.tracer.Start("component", s.cat)
	b, err := s.src.ComponentFlowBatch(vp, name, hour)
	return endSpan(sp, b, err)
}

// DegradedKeys forwards the wrapped source's degradation report, so the
// dataset still sees the keys a wire source served as empty stand-ins.
func (s tracedSource) DegradedKeys() []string {
	if r, ok := s.src.(core.DegradationReporter); ok {
		return r.DegradedKeys()
	}
	return nil
}
