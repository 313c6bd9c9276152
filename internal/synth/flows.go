package synth

import (
	"hash/fnv"
	"net/netip"
	"time"

	"lockdown/internal/flowrec"
)

// flowBasePerHour is the baseline number of flow records the sampler emits
// per component and hour (before shape/response scaling and FlowScale).
// Flow counts track the component's connection response so connection-level
// analyses (Section 7, Figure 8, Figure 12) see the documented growth
// factors; bytes are distributed over however many records are emitted, so
// volume analyses remain consistent with the volume model.
const flowBasePerHour = 40

// hourSeed derives a deterministic RNG seed for a component-hour: an
// FNV-1a hash of the generator seed, the component name and the hour
// index, which newPCG expands through splitmix64.
func hourSeed(seed int64, name string, t time.Time) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	u := uint64(t.UTC().Unix() / 3600)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64())
}

// connMultiplier returns the connection-count multiplier of a component at
// t: the dedicated connection response if present, otherwise the volume
// response (with the weekend override applied the same way VolumeAt does),
// times any scenario overlays so flow counts follow outages and flash
// events the same way volumes do.
func connMultiplier(c *Component, t time.Time) float64 {
	weekend := c.weekendLike(t)
	resp := c.Resp
	if weekend && c.WeekendResp != nil {
		resp = *c.WeekendResp
	}
	if c.ConnResp != nil && !weekend {
		resp = *c.ConnResp
	}
	m := resp.AtDay(t, weekend)
	if len(c.Waves) != 0 || len(c.Mods) != 0 {
		m *= c.overlayMultiplier(t, resp.peakFor(t, weekend))
	}
	return m
}

// flowCount returns how many flow records the sampler emits for component c
// in the hour starting at t. A raw count of exactly zero — a silenced
// profile hour or a scenario outage — yields zero records; a fractional
// count below one keeps the historic clamp to a single record, preserving
// every default-timeline hour byte for byte (the built-in profiles and
// responses are strictly positive, so the raw count is never zero where
// the volume model emits bytes; TestFlowCountClampOnlyTrimsLiveHours pins
// that invariant).
func (g *Generator) flowCount(c *Component, t time.Time) int {
	prof := c.Workday
	if c.weekendLike(t) {
		prof = c.Weekend
	}
	mean := prof.Mean()
	if mean == 0 {
		return 0
	}
	shape := prof.At(t.UTC().Hour()) / mean
	raw := flowBasePerHour * shape * connMultiplier(c, t) * g.cfg.FlowScale
	if raw <= 0 {
		return 0
	}
	n := int(raw)
	if n < 1 {
		n = 1
	}
	return n
}

// pickWeighted picks an index from precomputed Zipf weights using the
// RNG. The RNG consumption contract matters for determinism: exactly one
// Float64 is drawn when len(w) > 1 and none otherwise.
func pickWeighted(rng *pcg, w []float64) int {
	if len(w) <= 1 {
		return 0
	}
	r := rng.Float64()
	var acc float64
	for i, wi := range w {
		acc += wi
		if r < acc {
			return i
		}
	}
	return len(w) - 1
}

// zipfFor returns the cached weight vector for an endpoint fan of n.
func (g *Generator) zipfFor(n int) []float64 {
	if n < len(g.zipf) {
		return g.zipf[n]
	}
	return zipfWeights(n) // config mutated after New; fall back to computing
}

// FlowsForHourBatch samples synthetic flows for the hour starting at t
// into one columnar batch sized from the components' flow counts, so a
// component-hour costs one bulk allocation per column instead of one
// record struct per flow. The records' byte counters sum (approximately)
// to the hour's modelled volume; their count follows the components'
// connection responses; their endpoint addresses are minted from the
// components' AS prefixes with a pool that widens as usage grows (so
// unique-IP counts rise during the lockdown, as in Figure 8).
func (g *Generator) FlowsForHourBatch(t time.Time) *flowrec.Batch {
	t = t.UTC().Truncate(time.Hour)
	b := flowrec.NewBatch(0)
	g.flowsForHourInto(b, t, make([]float64, len(g.cfg.Components)))
	return b
}

// flowsForHourInto appends one hour's flows of every component to b. The
// hour's volumes are evaluated once into the vols scratch slice (len ==
// number of components) and the batch is grown by the hour's exact flow
// count before any row is appended — one bulk (re)allocation per column
// per component-hour, none when the caller pre-sized or reuses b.
func (g *Generator) flowsForHourInto(b *flowrec.Batch, t time.Time, vols []float64) {
	comps := g.cfg.Components
	n := 0
	for i := range comps {
		vols[i] = comps[i].VolumeAt(t, g.cfg.Seed)
		if vols[i] > 0 {
			n += g.flowCount(&comps[i], t)
		}
	}
	b.Grow(n)
	for i := range comps {
		g.componentFlowsInto(b, &comps[i], t, vols[i])
	}
}

// ComponentFlowsForHourBatch samples one named component's flows for the
// hour starting at t into a columnar batch sized from its flow count.
func (g *Generator) ComponentFlowsForHourBatch(name string, t time.Time) *flowrec.Batch {
	t = t.UTC().Truncate(time.Hour)
	for i := range g.cfg.Components {
		if c := &g.cfg.Components[i]; c.Name == name {
			vol := c.VolumeAt(t, g.cfg.Seed)
			n := 0
			if vol > 0 {
				n = g.flowCount(c, t)
			}
			b := flowrec.NewBatch(n)
			g.componentFlowsInto(b, c, t, vol)
			return b
		}
	}
	return flowrec.NewBatch(0)
}

// componentFlowsInto appends component c's flows for the hour starting at
// t (already truncated) to b; vol is the component's precomputed modelled
// volume for that hour. The flows are a pure function of (seed, component,
// hour): they come from one PCG seeded with hourSeed, drawn in a fixed
// order per flow (source AS, destination AS, both endpoint indices, the
// VPN gateway, the port pair, start, duration, bytes, client port), so
// batches and the dataset cache all observe identical flows.
func (g *Generator) componentFlowsInto(b *flowrec.Batch, c *Component, t time.Time, vol float64) {
	if vol <= 0 {
		return
	}
	n := g.flowCount(c, t)
	if n == 0 {
		return
	}
	rng := newPCG(uint64(hourSeed(g.cfg.Seed, c.Name, t)))
	bytesPerFlow := vol / float64(n)
	if bytesPerFlow < 64 {
		bytesPerFlow = 64
	}

	pool := c.EndpointPool
	if pool <= 0 {
		pool = 1000
	}
	mult := connMultiplier(c, t)
	scaledPool := int(float64(pool) * mult)
	if scaledPool < 1 {
		scaledPool = 1
	}

	srcW, dstW := g.zipfFor(len(c.SrcASNs)), g.zipfFor(len(c.DstASNs))
	for i := 0; i < n; i++ {
		srcASN := c.SrcASNs[pickWeighted(&rng, srcW)]
		dstASN := c.DstASNs[pickWeighted(&rng, dstW)]

		srcIP := g.addrFor(srcASN, uint32(rng.Intn(scaledPool)))
		dstIP := g.addrFor(dstASN, uint32(rng.Intn(scaledPool)))
		// VPN-over-TLS components pin the enterprise (source) side to the
		// known gateway addresses so domain-based detection can find them.
		if c.Class == ClassVPNTLS && len(g.vpnGateways) > 0 {
			srcIP = g.vpnGateways[rng.Intn(len(g.vpnGateways))]
			if a, ok := g.reg.LookupIP(srcIP); ok {
				srcASN = a.ASN
			}
		}

		pp := c.Ports[0]
		if len(c.Ports) > 1 && rng.Float64() > 0.6 {
			pp = c.Ports[1+rng.Intn(len(c.Ports)-1)]
		}

		start := t.Add(time.Duration(rng.Intn(3600)) * time.Second)
		dur := time.Duration(5+rng.Intn(290)) * time.Second
		end := start.Add(dur)
		if end.After(t.Add(time.Hour)) {
			end = t.Add(time.Hour)
		}

		bytes := uint64(bytesPerFlow * (0.5 + rng.Float64()))
		if bytes == 0 {
			bytes = 64
		}
		packets := bytes / 1200
		if packets == 0 {
			packets = 1
		}

		dir := c.Dir
		if c.ConnDir != flowrec.DirUnknown {
			dir = c.ConnDir
		}
		rec := flowrec.Record{
			Start:   start,
			End:     end,
			SrcIP:   srcIP,
			DstIP:   dstIP,
			SrcAS:   srcASN,
			DstAS:   dstASN,
			Proto:   pp.Proto,
			SrcPort: pp.Port,
			DstPort: uint16(49152 + rng.Intn(16000)),
			Bytes:   bytes,
			Packets: packets,
			Dir:     dir,
			InIf:    1,
			OutIf:   2,
		}
		if pp.Proto == flowrec.ProtoGRE || pp.Proto == flowrec.ProtoESP {
			rec.SrcPort, rec.DstPort = 0, 0
		}
		if pp.Proto == flowrec.ProtoTCP {
			rec.TCPFlags = 0x1b
		}
		b.Append(rec)
	}
}

// FlowsBetweenBatch samples flows for every hour in [from, to) into one
// batch. Each hour is generated with an exact pre-grow; across hours the
// columns grow amortised.
func (g *Generator) FlowsBetweenBatch(from, to time.Time) *flowrec.Batch {
	from = from.UTC().Truncate(time.Hour)
	b := flowrec.NewBatch(0)
	vols := make([]float64, len(g.cfg.Components))
	for t := from; t.Before(to); t = t.Add(time.Hour) {
		g.flowsForHourInto(b, t, vols)
	}
	return b
}

func (g *Generator) addrFor(asn uint32, n uint32) netip.Addr {
	a, err := g.reg.AddrFor(asn, n)
	if err != nil {
		return netip.AddrFrom4([4]byte{192, 0, 2, 1})
	}
	return a
}
