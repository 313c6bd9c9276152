package synth

import (
	"fmt"
	"net/netip"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/timeseries"
)

// Generator evaluates the traffic model of one vantage point. It is safe
// for concurrent use: all queries are pure functions of the configuration.
type Generator struct {
	cfg Config
	reg *asdb.Registry
	// vpnGateways are the addresses the vpn-tls components should pin
	// their enterprise-side endpoints to (see Config and Section 6).
	vpnGateways []netip.Addr
	// zipf[n] caches zipfWeights(n) for every endpoint-fan size the
	// components use, so the flow sampler picks AS endpoints without
	// recomputing (and reallocating) the weight vector per flow.
	zipf [][]float64
}

// New validates cfg and returns a Generator. Missing optional fields are
// filled with defaults (the built-in AS registry, flow scale 1).
func New(cfg Config) (*Generator, error) {
	if len(cfg.Components) == 0 {
		return nil, fmt.Errorf("synth: config for %q has no components", cfg.VP)
	}
	if cfg.Registry == nil {
		cfg.Registry = asdb.Default()
	}
	if cfg.FlowScale <= 0 {
		cfg.FlowScale = 1
	}
	seen := make(map[string]bool, len(cfg.Components))
	for _, c := range cfg.Components {
		if c.Name == "" {
			return nil, fmt.Errorf("synth: component with empty name in %q", cfg.VP)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("synth: duplicate component %q in %q", c.Name, cfg.VP)
		}
		seen[c.Name] = true
		if c.BaseGbps < 0 {
			return nil, fmt.Errorf("synth: component %q has negative base rate", c.Name)
		}
		if len(c.SrcASNs) == 0 || len(c.DstASNs) == 0 {
			return nil, fmt.Errorf("synth: component %q lacks source or destination ASes", c.Name)
		}
		for _, asn := range append(append([]uint32{}, c.SrcASNs...), c.DstASNs...) {
			if _, ok := cfg.Registry.Lookup(asn); !ok {
				return nil, fmt.Errorf("synth: component %q references unknown AS%d", c.Name, asn)
			}
		}
	}
	maxFan := 0
	for _, c := range cfg.Components {
		if len(c.SrcASNs) > maxFan {
			maxFan = len(c.SrcASNs)
		}
		if len(c.DstASNs) > maxFan {
			maxFan = len(c.DstASNs)
		}
	}
	zipf := make([][]float64, maxFan+1)
	for n := 1; n <= maxFan; n++ {
		zipf[n] = zipfWeights(n)
	}
	return &Generator{cfg: cfg, reg: cfg.Registry, zipf: zipf}, nil
}

// NewDefault builds a generator for the built-in model of the vantage
// point.
func NewDefault(vp VantagePoint) (*Generator, error) {
	return New(DefaultConfig(vp))
}

// MustNewDefault is NewDefault for use in examples and benchmarks where
// the built-in configurations are known to be valid.
func MustNewDefault(vp VantagePoint) *Generator {
	g, err := NewDefault(vp)
	if err != nil {
		panic(err)
	}
	return g
}

// SetVPNGateways pins the enterprise-side endpoints of the ClassVPNTLS
// components to the given addresses, so that the domain-based VPN
// detection (package vpndetect) can rediscover them. Addresses outside the
// registry's space are ignored.
func (g *Generator) SetVPNGateways(addrs []netip.Addr) {
	g.vpnGateways = nil
	for _, a := range addrs {
		if _, ok := g.reg.LookupIP(a); ok {
			g.vpnGateways = append(g.vpnGateways, a)
		}
	}
}

// WithVPNGateways returns a copy of g with the VPN gateways pinned as in
// SetVPNGateways, leaving g untouched. Callers that share one generator
// (e.g. a dataset cache) use this to derive the gateway-pinned variant
// without mutating the shared instance.
func (g *Generator) WithVPNGateways(addrs []netip.Addr) *Generator {
	c := *g
	c.vpnGateways = nil
	for _, a := range addrs {
		if _, ok := c.reg.LookupIP(a); ok {
			c.vpnGateways = append(c.vpnGateways, a)
		}
	}
	return &c
}

// Fingerprint returns a stable identifier of the configuration's input
// space: vantage point, seed, flow-sampling scale, and — when set — the
// Variant tag of a modified model. For configurations from the built-in
// component model (DefaultConfig), equal fingerprints imply byte-identical
// series and flow samples, so the fingerprint is a safe memoization key
// for derived datasets. Compiled scenarios must carry a distinct Variant;
// hand-edited Components or a custom Registry without one are not covered
// — do not key caches on it for such configurations. The variant suffix
// appears only for non-default configurations, keeping the golden
// default's keys (and every cache path derived from them) unchanged.
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("%s|seed=%d|scale=%g", c.VP, c.Seed, c.FlowScale)
	if c.Variant != "" {
		fp += "|variant=" + c.Variant
	}
	return fp
}

// Registry returns the AS registry backing the generator.
func (g *Generator) Registry() *asdb.Registry { return g.reg }

// HourlyVolume returns the total bytes of the hour starting at t.
func (g *Generator) HourlyVolume(t time.Time) float64 {
	var v float64
	for i := range g.cfg.Components {
		v += g.cfg.Components[i].VolumeAt(t, g.cfg.Seed)
	}
	return v
}

// TotalSeries returns the hourly total-volume series for [from, to).
func (g *Generator) TotalSeries(from, to time.Time) *timeseries.Series {
	s := timeseries.New(string(g.cfg.VP) + " total")
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		s.Add(t, g.HourlyVolume(t))
	}
	return s
}

// ClassSeries returns the hourly series of one traffic class for [from,
// to).
func (g *Generator) ClassSeries(class Class, from, to time.Time) *timeseries.Series {
	s := timeseries.New(string(g.cfg.VP) + " " + string(class))
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		var v float64
		for i := range g.cfg.Components {
			if c := &g.cfg.Components[i]; c.Class == class {
				v += c.VolumeAt(t, g.cfg.Seed)
			}
		}
		s.Add(t, v)
	}
	return s
}

// zipfWeights returns normalised 1/(i+1) weights for n items.
func zipfWeights(n int) []float64 {
	if n == 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / float64(i+1)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// hypergiantShare returns the fraction of a component's volume originated
// by hypergiant ASes, based on the component's Zipf source weights.
func (g *Generator) hypergiantShare(c *Component) float64 {
	w := zipfWeights(len(c.SrcASNs))
	var share float64
	for i, asn := range c.SrcASNs {
		if g.reg.IsHypergiant(asn) {
			share += w[i]
		}
	}
	return share
}

// HypergiantSplit returns the bytes of the hour starting at t delivered by
// hypergiant ASes and by all other ASes (Section 3.2, Figure 4). As in the
// paper, only subscriber-facing (non-transit) traffic is considered.
func (g *Generator) HypergiantSplit(t time.Time) (hypergiant, other float64) {
	for i := range g.cfg.Components {
		c := &g.cfg.Components[i]
		if !c.Residential {
			continue
		}
		v := c.VolumeAt(t, g.cfg.Seed)
		share := g.hypergiantShare(c)
		hypergiant += v * share
		other += v * (1 - share)
	}
	return hypergiant, other
}

// HypergiantSeries returns hourly series for hypergiant and other-AS
// traffic over [from, to).
func (g *Generator) HypergiantSeries(from, to time.Time) (hypergiant, other *timeseries.Series) {
	hypergiant = timeseries.New(string(g.cfg.VP) + " hypergiants")
	other = timeseries.New(string(g.cfg.VP) + " other ASes")
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		h, o := g.HypergiantSplit(t)
		hypergiant.Add(t, h)
		other.Add(t, o)
	}
	return hypergiant, other
}

// DirectionSplit returns the bytes entering (ingress) and leaving (egress)
// the measured network for the hour starting at t. Components without a
// direction count as ingress for the EDU/ISP perspective and are split
// evenly otherwise.
func (g *Generator) DirectionSplit(t time.Time) (ingress, egress float64) {
	for i := range g.cfg.Components {
		c := &g.cfg.Components[i]
		v := c.VolumeAt(t, g.cfg.Seed)
		switch c.Dir {
		case flowrec.DirIngress:
			ingress += v
		case flowrec.DirEgress:
			egress += v
		default:
			ingress += v / 2
			egress += v / 2
		}
	}
	return ingress, egress
}

// DirectionSeries returns hourly ingress and egress series over [from,
// to).
func (g *Generator) DirectionSeries(from, to time.Time) (ingress, egress *timeseries.Series) {
	ingress = timeseries.New(string(g.cfg.VP) + " ingress")
	egress = timeseries.New(string(g.cfg.VP) + " egress")
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		in, out := g.DirectionSplit(t)
		ingress.Add(t, in)
		egress.Add(t, out)
	}
	return ingress, egress
}

// ASHourVolume is the per-AS attribution of one hour of traffic.
type ASHourVolume struct {
	Total       float64
	Residential float64
}

// ASVolumes attributes the hour starting at t to source ASes, reporting
// both total bytes and the bytes exchanged with eyeball networks
// (residential traffic). It feeds the remote-work analysis of Section 3.4.
func (g *Generator) ASVolumes(t time.Time) map[uint32]ASHourVolume {
	out := make(map[uint32]ASHourVolume)
	for i := range g.cfg.Components {
		c := &g.cfg.Components[i]
		v := c.VolumeAt(t, g.cfg.Seed)
		w := zipfWeights(len(c.SrcASNs))
		for i, asn := range c.SrcASNs {
			e := out[asn]
			share := v * w[i]
			e.Total += share
			if c.Residential {
				e.Residential += share
			}
			out[asn] = e
		}
	}
	return out
}

// ASVolumeBetween sums ASVolumes over the whole-hour grid of [from, to).
func (g *Generator) ASVolumeBetween(from, to time.Time) map[uint32]ASHourVolume {
	out := make(map[uint32]ASHourVolume)
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		for asn, v := range g.ASVolumes(t) {
			e := out[asn]
			e.Total += v.Total
			e.Residential += v.Residential
			out[asn] = e
		}
	}
	return out
}
