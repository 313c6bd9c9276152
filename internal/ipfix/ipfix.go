// Package ipfix implements the IPFIX (RFC 7011) export format used by the
// IXP vantage points of "The Lockdown Effect" (IMC 2020). As with package netflow, only IPv4 flow
// records with the fields the analyses need are supported, but message
// framing, template sets and data sets follow the RFC so the codec
// interoperates with standard collectors.
//
// Like package netflow, the codec works on columnar batches
// (Encoder.EncodeBatch, Decoder.DecodeBatch): it appends messages to a
// caller-supplied byte slice and rows to a caller-supplied flowrec.Batch,
// with zero allocations per record in the steady state.
package ipfix

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"lockdown/internal/flowrec"
)

// IPFIX information element identifiers (IANA registry) used by the
// standard template.
const (
	ieOctetDeltaCount  = 1
	iePacketDeltaCount = 2
	ieProtocol         = 4
	ieTCPControlBits   = 6
	ieSrcPort          = 7
	ieSrcIPv4          = 8
	ieIngressIf        = 10
	ieDstPort          = 11
	ieDstIPv4          = 12
	ieEgressIf         = 14
	ieBgpSrcAS         = 16
	ieBgpDstAS         = 17
	ieFlowEndSeconds   = 151
	ieFlowStartSeconds = 150
	ieFlowDirection    = 61
)

const (
	version   = 10
	headerLen = 16
	// maxGrowRows bounds the per-data-set batch reservation; see
	// parseData.
	maxGrowRows = 4096
	// TemplateSetID is the set identifier of template sets (RFC 7011).
	TemplateSetID = 2
	// TemplateID is the template this package exports data records with.
	TemplateID = 400
)

type field struct {
	ID     uint16
	Length uint16
}

var standardTemplate = []field{
	{ieSrcIPv4, 4},
	{ieDstIPv4, 4},
	{ieOctetDeltaCount, 8},
	{iePacketDeltaCount, 8},
	{ieFlowStartSeconds, 4},
	{ieFlowEndSeconds, 4},
	{ieSrcPort, 2},
	{ieDstPort, 2},
	{ieProtocol, 1},
	{ieTCPControlBits, 1},
	{ieFlowDirection, 1},
	{ieIngressIf, 4},
	{ieEgressIf, 4},
	{ieBgpSrcAS, 4},
	{ieBgpDstAS, 4},
}

func recordLen(tpl []field) int {
	n := 0
	for _, f := range tpl {
		n += int(f.Length)
	}
	return n
}

// Encoder serialises flow records into IPFIX messages for one observation
// domain. Every message carries the template set before the data set.
type Encoder struct {
	DomainID uint32
	seq      uint32
}

// EncodeBatch appends one IPFIX message carrying the template set and
// rows [lo, hi) of b to dst and returns the extended slice. Rows must be
// IPv4. The message is written in place: a caller that reuses the
// returned slice across messages encodes with zero allocations once the
// buffer has grown to message size. On error dst is returned unmodified
// and the sequence number is not consumed.
func (e *Encoder) EncodeBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
	n := hi - lo
	if n <= 0 {
		return dst, fmt.Errorf("ipfix: no records to encode")
	}
	for i := lo; i < hi; i++ {
		if !b.SrcIP[i].Is4() || !b.DstIP[i].Is4() {
			return dst, fmt.Errorf("ipfix: record %d is not IPv4", i-lo)
		}
	}
	be := binary.BigEndian
	tplSetLen := 4 + 4 + 4*len(standardTemplate)
	rl := recordLen(standardTemplate)
	dataSetLen := 4 + n*rl
	total := headerLen + tplSetLen + dataSetLen

	off0 := len(dst)
	dst = slices.Grow(dst, total)[:off0+total]
	msg := dst[off0:]

	be.PutUint16(msg[0:], version)
	be.PutUint16(msg[2:], uint16(total))
	be.PutUint32(msg[4:], uint32(exportTime.Unix()))
	be.PutUint32(msg[8:], e.seq)
	be.PutUint32(msg[12:], e.DomainID)

	// Template set.
	tpl := msg[headerLen:]
	be.PutUint16(tpl[0:], TemplateSetID)
	be.PutUint16(tpl[2:], uint16(tplSetLen))
	be.PutUint16(tpl[4:], TemplateID)
	be.PutUint16(tpl[6:], uint16(len(standardTemplate)))
	for i, f := range standardTemplate {
		be.PutUint16(tpl[8+4*i:], f.ID)
		be.PutUint16(tpl[10+4*i:], f.Length)
	}

	// Data set.
	data := msg[headerLen+tplSetLen:]
	be.PutUint16(data[0:], TemplateID)
	be.PutUint16(data[2:], uint16(dataSetLen))
	for i := lo; i < hi; i++ {
		rec := data[4+(i-lo)*rl:]
		src, dip := b.SrcIP[i].As4(), b.DstIP[i].As4()
		off := 0
		copy(rec[off:], src[:])
		off += 4
		copy(rec[off:], dip[:])
		off += 4
		be.PutUint64(rec[off:], b.Bytes[i])
		off += 8
		be.PutUint64(rec[off:], b.Packets[i])
		off += 8
		be.PutUint32(rec[off:], uint32(b.StartNs[i]/int64(time.Second)))
		off += 4
		be.PutUint32(rec[off:], uint32(b.EndNs[i]/int64(time.Second)))
		off += 4
		be.PutUint16(rec[off:], b.SrcPort[i])
		off += 2
		be.PutUint16(rec[off:], b.DstPort[i])
		off += 2
		rec[off] = byte(b.Proto[i])
		off++
		rec[off] = b.TCPFlags[i]
		off++
		rec[off] = byte(b.Dir[i])
		off++
		be.PutUint32(rec[off:], uint32(b.InIf[i]))
		off += 4
		be.PutUint32(rec[off:], uint32(b.OutIf[i]))
		off += 4
		be.PutUint32(rec[off:], b.SrcAS[i])
		off += 4
		be.PutUint32(rec[off:], b.DstAS[i])
	}
	e.seq += uint32(n)
	return dst, nil
}

// DomainID returns the observation domain ID of an IPFIX message header
// without decoding the sets (0 for messages too short to carry a header
// — the decoder rejects those anyway). Collectors use it to attribute a
// datagram to its exporter stream; the sharded replay cluster demuxes
// interleaved pump streams by it.
func DomainID(msg []byte) uint32 {
	if len(msg) < headerLen {
		return 0
	}
	return binary.BigEndian.Uint32(msg[12:])
}

// Decoder parses IPFIX messages, caching templates per observation domain.
type Decoder struct {
	templates map[uint64][]field
}

// NewDecoder returns a Decoder with an empty template cache.
func NewDecoder() *Decoder {
	return &Decoder{templates: make(map[uint64][]field)}
}

func key(domain uint32, tpl uint16) uint64 { return uint64(domain)<<16 | uint64(tpl) }

// DecodeBatch parses one IPFIX message, appending the records of all data
// sets whose templates are known to dst, and returns how many rows were
// appended. On error dst is rolled back to its original length.
// Re-announcements of an unchanged template do not allocate, so a
// steady-state decode loop over a reused dst performs zero allocations
// per message.
func (d *Decoder) DecodeBatch(dst *flowrec.Batch, msg []byte) (int, error) {
	be := binary.BigEndian
	before := dst.Len()
	if len(msg) < headerLen {
		return 0, fmt.Errorf("ipfix: message too short")
	}
	if v := be.Uint16(msg[0:]); v != version {
		return 0, fmt.Errorf("ipfix: unexpected version %d", v)
	}
	if l := int(be.Uint16(msg[2:])); l != len(msg) {
		return 0, fmt.Errorf("ipfix: length field %d does not match message size %d", l, len(msg))
	}
	domain := be.Uint32(msg[12:])
	off := headerLen
	for off+4 <= len(msg) {
		setID := be.Uint16(msg[off:])
		setLen := int(be.Uint16(msg[off+2:]))
		if setLen < 4 || off+setLen > len(msg) {
			dst.Truncate(before)
			return 0, fmt.Errorf("ipfix: invalid set length %d at offset %d", setLen, off)
		}
		body := msg[off+4 : off+setLen]
		switch {
		case setID == TemplateSetID:
			if err := d.parseTemplates(domain, body); err != nil {
				dst.Truncate(before)
				return 0, err
			}
		case setID >= 256:
			if err := d.parseData(dst, domain, setID, body); err != nil {
				dst.Truncate(before)
				return 0, err
			}
		}
		off += setLen
	}
	return dst.Len() - before, nil
}

func (d *Decoder) parseTemplates(domain uint32, body []byte) error {
	be := binary.BigEndian
	off := 0
	for off+4 <= len(body) {
		tplID := be.Uint16(body[off:])
		count := int(be.Uint16(body[off+2:]))
		off += 4
		if off+4*count > len(body) {
			return fmt.Errorf("ipfix: truncated template %d", tplID)
		}
		k := key(domain, tplID)
		// Exporters send the template set in every message; only allocate
		// and store when the template actually changed.
		if !templateUnchanged(d.templates[k], body[off:], count) {
			fields := make([]field, count)
			for i := 0; i < count; i++ {
				fields[i] = field{
					ID:     be.Uint16(body[off+4*i:]),
					Length: be.Uint16(body[off+4*i+2:]),
				}
			}
			d.templates[k] = fields
		}
		off += 4 * count
	}
	return nil
}

// templateUnchanged reports whether the cached template matches the
// wire-format field list starting at body.
func templateUnchanged(cached []field, body []byte, count int) bool {
	if len(cached) != count {
		return false
	}
	be := binary.BigEndian
	for i, f := range cached {
		if f.ID != be.Uint16(body[4*i:]) || f.Length != be.Uint16(body[4*i+2:]) {
			return false
		}
	}
	return true
}

func (d *Decoder) parseData(dst *flowrec.Batch, domain uint32, tplID uint16, body []byte) error {
	tpl, ok := d.templates[key(domain, tplID)]
	if !ok {
		return fmt.Errorf("ipfix: data set %d before its template", tplID)
	}
	rl := recordLen(tpl)
	if rl == 0 {
		return fmt.Errorf("ipfix: template %d has zero length", tplID)
	}
	// Cap the up-front reservation: a hostile template with tiny records
	// would otherwise amplify every input byte into ~100 bytes of column
	// reservation. Real export packets stay far below the cap, so the
	// steady-state decode path still performs exactly one bulk grow.
	dst.Grow(min(len(body)/rl, maxGrowRows))
	for off := 0; off+rl <= len(body); off += rl {
		var r flowrec.Record
		pos := off
		for _, f := range tpl {
			if f.Length == 0 {
				// Zero-length fields carry no value; skipping them here
				// also keeps the single-byte reads below (v[0]) safe
				// against hostile templates.
				continue
			}
			v := body[pos : pos+int(f.Length)]
			switch f.ID {
			case ieSrcIPv4:
				var a [4]byte
				copy(a[:], v)
				r.SrcIP = netip.AddrFrom4(a)
			case ieDstIPv4:
				var a [4]byte
				copy(a[:], v)
				r.DstIP = netip.AddrFrom4(a)
			case ieOctetDeltaCount:
				r.Bytes = beUint(v)
			case iePacketDeltaCount:
				r.Packets = beUint(v)
			case ieFlowStartSeconds:
				r.Start = time.Unix(int64(beUint(v)), 0).UTC()
			case ieFlowEndSeconds:
				r.End = time.Unix(int64(beUint(v)), 0).UTC()
			case ieSrcPort:
				r.SrcPort = uint16(beUint(v))
			case ieDstPort:
				r.DstPort = uint16(beUint(v))
			case ieProtocol:
				r.Proto = flowrec.Proto(v[0])
			case ieTCPControlBits:
				r.TCPFlags = v[0]
			case ieFlowDirection:
				r.Dir = flowrec.Direction(v[0])
			case ieIngressIf:
				r.InIf = uint16(beUint(v))
			case ieEgressIf:
				r.OutIf = uint16(beUint(v))
			case ieBgpSrcAS:
				r.SrcAS = uint32(beUint(v))
			case ieBgpDstAS:
				r.DstAS = uint32(beUint(v))
			}
			pos += int(f.Length)
		}
		dst.Append(r)
	}
	return nil
}

func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
