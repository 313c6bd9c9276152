package synth

import (
	"time"

	"lockdown/internal/calendar"
)

// This file holds the scenario overlay types: time-varying modifiers a
// compiled scenario (internal/scenario) attaches to components on top of
// their built-in primary Response. The built-in model attaches none, and
// every evaluation path loops over empty slices, so the default timeline
// is bit-identical with or without this layer.

// Wave is an additional lockdown wave overlaid on a component. Unlike a
// flat Modulation it reuses the component's own response character: at
// full effect it multiplies the volume by 1 + (peak-1)*Severity, where
// peak is the component's applicable Peak/PeakWorkHours/PeakWeekend for
// that hour — so a second wave makes conferencing surge during working
// hours and enterprise transit collapse, just like the first one did.
type Wave struct {
	// Start is when the wave's effect begins ramping in.
	Start time.Time
	// Full is when the ramp completes (effect fraction 1).
	Full time.Time
	// DecayStart, if set, is when the effect starts decaying towards
	// Retained. Zero means the effect holds at 1 until End.
	DecayStart time.Time
	// End closes the decay window. Zero with a zero DecayStart means the
	// effect persists to the end of the study window.
	End time.Time
	// Severity scales the component's (peak-1) excursion: 1 repeats the
	// primary wave's amplitude, 0.5 is half as strong.
	Severity float64
	// Retained is the fraction of the wave's change still present after
	// End (0 reverts fully, like Response.Retained but for this wave).
	Retained float64
}

// frac returns the wave's effect fraction (0..1 ramp, then decay to
// Retained) at time t.
func (w Wave) frac(t time.Time) float64 {
	decay := w.DecayStart
	if decay.IsZero() {
		decay = w.End
	}
	switch {
	case t.Before(w.Start):
		return 0
	case t.Before(w.Full):
		return progress(w.Start, w.Full, t)
	case decay.IsZero() || t.Before(decay):
		return 1
	case w.End.IsZero() || !w.End.After(decay):
		return w.Retained
	case t.Before(w.End):
		return 1 - (1-w.Retained)*progress(decay, w.End, t)
	default:
		return w.Retained
	}
}

// At returns the wave's volume multiplier for a component whose
// applicable peak multiplier at t is peak.
func (w Wave) At(t time.Time, peak float64) float64 {
	f := w.frac(t)
	if f == 0 {
		return 1
	}
	m := 1 + (peak-1)*w.Severity*f
	if m < 0 {
		m = 0
	}
	return m
}

// Modulation is a flat, windowed volume multiplier: a flash event
// (Factor > 1) or a link outage (Factor < 1, 0 silencing the component
// entirely). It applies to volumes and flow counts alike; a Factor of
// exactly 0 yields a genuinely silent component-hour — zero bytes, zero
// flow records.
type Modulation struct {
	// Start and End bound the affected window (half-open, [Start, End)).
	Start, End time.Time
	// RampIn and RampOut are linear edges inside the window over which
	// the factor fades in and out; zero means a hard edge.
	RampIn, RampOut time.Duration
	// Factor is the multiplier at full effect.
	Factor float64
}

// At returns the modulation's multiplier at t: 1 outside the window,
// Factor at full effect, linearly interpolated across the ramp edges.
func (m Modulation) At(t time.Time) float64 {
	if t.Before(m.Start) || !t.Before(m.End) {
		return 1
	}
	eff := 1.0
	if m.RampIn > 0 {
		eff = progress(m.Start, m.Start.Add(m.RampIn), t)
	}
	if m.RampOut > 0 {
		out := progress(m.End.Add(-m.RampOut), m.End, t)
		if rem := 1 - out; rem < eff {
			eff = rem
		}
	}
	return 1 + (m.Factor-1)*eff
}

// overlayMultiplier folds the component's waves and modulations into one
// volume multiplier for time t. peak is the component's applicable peak
// for the hour (after the weekend/work-hours selection), which the waves
// reuse. The built-in model has no overlays and returns 1 without
// touching the clock.
func (c *Component) overlayMultiplier(t time.Time, peak float64) float64 {
	if len(c.Waves) == 0 && len(c.Mods) == 0 {
		return 1
	}
	m := 1.0
	for _, w := range c.Waves {
		m *= w.At(t, peak)
	}
	for _, mod := range c.Mods {
		m *= mod.At(t)
	}
	return m
}

// weekendLike reports whether t should be treated as a weekend-like day
// for this component: an actual weekend, a built-in regional holiday, or
// a scenario-declared extra holiday.
func (c *Component) weekendLike(t time.Time) bool {
	return calendar.IsWeekend(t) || calendar.IsHoliday(t) || c.Holidays.Contains(t)
}
