package netflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"lockdown/internal/flowrec"
)

// NetFlow v9 field type numbers (RFC 3954 / Cisco registry) used by the
// standard template below.
const (
	fieldInBytes   = 1
	fieldInPkts    = 2
	fieldProtocol  = 4
	fieldTCPFlags  = 6
	fieldL4SrcPort = 7
	fieldIPv4Src   = 8
	fieldInputSNMP = 10
	fieldL4DstPort = 11
	fieldIPv4Dst   = 12
	fieldOutSNMP   = 14
	fieldSrcAS     = 16
	fieldDstAS     = 17
	fieldLastSwt   = 21
	fieldFirstSwt  = 22
	fieldDirection = 61
)

const (
	v9Version     = 9
	v9HeaderLen   = 20
	v9TemplateSet = 0
	// V9TemplateID is the template this package exports records with.
	V9TemplateID = 256
	// maxGrowRows bounds the per-flowset batch reservation; see
	// parseData.
	maxGrowRows = 4096
)

// v9Field describes one field of a template: its type and length in bytes.
type v9Field struct {
	Type   uint16
	Length uint16
}

// standardTemplate is the single template the exporter emits; it carries
// everything flowrec.Record stores for IPv4 flows.
var standardTemplate = []v9Field{
	{fieldIPv4Src, 4},
	{fieldIPv4Dst, 4},
	{fieldInBytes, 8},
	{fieldInPkts, 8},
	{fieldFirstSwt, 4},
	{fieldLastSwt, 4},
	{fieldL4SrcPort, 2},
	{fieldL4DstPort, 2},
	{fieldProtocol, 1},
	{fieldTCPFlags, 1},
	{fieldDirection, 1},
	{fieldInputSNMP, 2},
	{fieldOutSNMP, 2},
	{fieldSrcAS, 4},
	{fieldDstAS, 4},
}

func templateRecordLen(tpl []v9Field) int {
	n := 0
	for _, f := range tpl {
		n += int(f.Length)
	}
	return n
}

// V9Encoder serialises flow records into NetFlow v9 packets. Each packet
// carries the template flowset followed by one data flowset, so decoders
// never observe data before its template.
type V9Encoder struct {
	SourceID uint32
	seq      uint32
}

// EncodeBatch appends one v9 packet carrying the template and rows
// [lo, hi) of b to dst and returns the extended slice. Rows must be IPv4.
// The packet bytes are written in place: a caller that reuses the
// returned slice across packets encodes with zero allocations once the
// buffer has grown to packet size. On error dst is returned unmodified
// and the sequence number is not consumed.
func (e *V9Encoder) EncodeBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
	n := hi - lo
	if n <= 0 {
		return dst, fmt.Errorf("netflow: no records to encode")
	}
	for i := lo; i < hi; i++ {
		if !b.SrcIP[i].Is4() || !b.DstIP[i].Is4() {
			return dst, fmt.Errorf("netflow: record %d is not IPv4", i-lo)
		}
	}
	be := binary.BigEndian
	tplSetLen := 4 + 4 + 4*len(standardTemplate)
	recLen := templateRecordLen(standardTemplate)
	pad := (4 - (4+n*recLen)%4) % 4
	dataSetLen := 4 + n*recLen + pad
	total := v9HeaderLen + tplSetLen + dataSetLen

	off0 := len(dst)
	dst = slices.Grow(dst, total)[:off0+total]
	pkt := dst[off0:]

	// Header: count is the number of records (template + data records).
	be.PutUint16(pkt[0:], v9Version)
	be.PutUint16(pkt[2:], uint16(1+n))
	be.PutUint32(pkt[4:], uint32(time.Hour.Milliseconds()))
	be.PutUint32(pkt[8:], uint32(exportTime.Unix()))
	be.PutUint32(pkt[12:], e.seq)
	be.PutUint32(pkt[16:], e.SourceID)

	// Template flowset.
	tpl := pkt[v9HeaderLen:]
	be.PutUint16(tpl[0:], v9TemplateSet)
	be.PutUint16(tpl[2:], uint16(tplSetLen))
	be.PutUint16(tpl[4:], V9TemplateID)
	be.PutUint16(tpl[6:], uint16(len(standardTemplate)))
	for i, f := range standardTemplate {
		be.PutUint16(tpl[8+4*i:], f.Type)
		be.PutUint16(tpl[10+4*i:], f.Length)
	}

	// Data flowset.
	data := pkt[v9HeaderLen+tplSetLen:]
	be.PutUint16(data[0:], V9TemplateID)
	be.PutUint16(data[2:], uint16(dataSetLen))
	for i := lo; i < hi; i++ {
		rec := data[4+(i-lo)*recLen:]
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
		be.PutUint16(rec[off:], b.InIf[i])
		off += 2
		be.PutUint16(rec[off:], b.OutIf[i])
		off += 2
		be.PutUint32(rec[off:], b.SrcAS[i])
		off += 4
		be.PutUint32(rec[off:], b.DstAS[i])
	}
	for i := 0; i < pad; i++ {
		data[4+n*recLen+i] = 0 // pad to a 4-byte boundary (buffer may be reused)
	}
	e.seq++
	return dst, nil
}

// V9SourceID returns the source ID field of a NetFlow v9 packet header
// without decoding the flowsets (0 for packets too short to carry a
// header — the decoder rejects those anyway). Collectors use it to
// attribute a datagram to its exporter stream; the sharded replay
// cluster demuxes interleaved pump streams by it.
func V9SourceID(pkt []byte) uint32 {
	if len(pkt) < v9HeaderLen {
		return 0
	}
	return binary.BigEndian.Uint32(pkt[16:])
}

// V9Decoder parses NetFlow v9 packets, maintaining the template cache
// required to interpret data flowsets. Templates are cached per source ID.
type V9Decoder struct {
	templates map[uint64][]v9Field // key: sourceID<<16 | templateID
}

// NewV9Decoder returns a decoder with an empty template cache.
func NewV9Decoder() *V9Decoder {
	return &V9Decoder{templates: make(map[uint64][]v9Field)}
}

func tplKey(sourceID uint32, tplID uint16) uint64 {
	return uint64(sourceID)<<16 | uint64(tplID)
}

// DecodeBatch parses one packet, appending the flow records of all data
// flowsets whose templates are known to dst, and returns how many rows
// were appended. Unknown templates cause an error (the exporter in this
// package always sends the template first); on error dst is rolled back
// to its original length. Re-announcements of an unchanged template do
// not allocate, so a steady-state decode loop over a reused dst performs
// zero allocations per packet.
func (d *V9Decoder) DecodeBatch(dst *flowrec.Batch, pkt []byte) (int, error) {
	be := binary.BigEndian
	before := dst.Len()
	if len(pkt) < v9HeaderLen {
		return 0, fmt.Errorf("netflow: v9 packet too short")
	}
	if v := be.Uint16(pkt[0:]); v != v9Version {
		return 0, fmt.Errorf("netflow: unexpected version %d", v)
	}
	sourceID := be.Uint32(pkt[16:])
	off := v9HeaderLen
	for off+4 <= len(pkt) {
		setID := be.Uint16(pkt[off:])
		setLen := int(be.Uint16(pkt[off+2:]))
		if setLen < 4 || off+setLen > len(pkt) {
			dst.Truncate(before)
			return 0, fmt.Errorf("netflow: invalid flowset length %d at offset %d", setLen, off)
		}
		body := pkt[off+4 : off+setLen]
		switch {
		case setID == v9TemplateSet:
			if err := d.parseTemplates(sourceID, body); err != nil {
				dst.Truncate(before)
				return 0, err
			}
		case setID >= 256:
			if err := d.parseData(dst, sourceID, setID, body); err != nil {
				dst.Truncate(before)
				return 0, err
			}
		default:
			// Options templates (set 1) and other reserved sets are skipped.
		}
		off += setLen
	}
	return dst.Len() - before, nil
}

func (d *V9Decoder) parseTemplates(sourceID uint32, body []byte) error {
	be := binary.BigEndian
	off := 0
	for off+4 <= len(body) {
		tplID := be.Uint16(body[off:])
		fieldCount := int(be.Uint16(body[off+2:]))
		off += 4
		if off+4*fieldCount > len(body) {
			return fmt.Errorf("netflow: truncated template %d", tplID)
		}
		key := tplKey(sourceID, tplID)
		// Exporters re-announce templates in every packet; only allocate
		// and store when the template actually changed.
		if !v9TemplateUnchanged(d.templates[key], body[off:], fieldCount) {
			fields := make([]v9Field, fieldCount)
			for i := 0; i < fieldCount; i++ {
				fields[i] = v9Field{
					Type:   be.Uint16(body[off+4*i:]),
					Length: be.Uint16(body[off+4*i+2:]),
				}
			}
			d.templates[key] = fields
		}
		off += 4 * fieldCount
	}
	return nil
}

// v9TemplateUnchanged reports whether the cached template matches the
// wire-format field list starting at body.
func v9TemplateUnchanged(cached []v9Field, body []byte, fieldCount int) bool {
	if len(cached) != fieldCount {
		return false
	}
	be := binary.BigEndian
	for i, f := range cached {
		if f.Type != be.Uint16(body[4*i:]) || f.Length != be.Uint16(body[4*i+2:]) {
			return false
		}
	}
	return true
}

func (d *V9Decoder) parseData(dst *flowrec.Batch, sourceID uint32, tplID uint16, body []byte) error {
	tpl, ok := d.templates[tplKey(sourceID, tplID)]
	if !ok {
		return fmt.Errorf("netflow: data flowset %d before its template", tplID)
	}
	recLen := templateRecordLen(tpl)
	if recLen == 0 {
		return fmt.Errorf("netflow: template %d has zero length", tplID)
	}
	// Cap the up-front reservation: a hostile template with tiny records
	// would otherwise amplify every input byte into ~100 bytes of column
	// reservation. Real export packets stay far below the cap, so the
	// steady-state decode path still performs exactly one bulk grow.
	dst.Grow(min(len(body)/recLen, maxGrowRows))
	for off := 0; off+recLen <= len(body); off += recLen {
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
			switch f.Type {
			case fieldIPv4Src:
				var a [4]byte
				copy(a[:], v)
				r.SrcIP = netip.AddrFrom4(a)
			case fieldIPv4Dst:
				var a [4]byte
				copy(a[:], v)
				r.DstIP = netip.AddrFrom4(a)
			case fieldInBytes:
				r.Bytes = beUint(v)
			case fieldInPkts:
				r.Packets = beUint(v)
			case fieldFirstSwt:
				r.Start = time.Unix(int64(beUint(v)), 0).UTC()
			case fieldLastSwt:
				r.End = time.Unix(int64(beUint(v)), 0).UTC()
			case fieldL4SrcPort:
				r.SrcPort = uint16(beUint(v))
			case fieldL4DstPort:
				r.DstPort = uint16(beUint(v))
			case fieldProtocol:
				r.Proto = flowrec.Proto(v[0])
			case fieldTCPFlags:
				r.TCPFlags = v[0]
			case fieldDirection:
				r.Dir = flowrec.Direction(v[0])
			case fieldInputSNMP:
				r.InIf = uint16(beUint(v))
			case fieldOutSNMP:
				r.OutIf = uint16(beUint(v))
			case fieldSrcAS:
				r.SrcAS = uint32(beUint(v))
			case fieldDstAS:
				r.DstAS = uint32(beUint(v))
			}
			pos += int(f.Length)
		}
		dst.Append(r)
	}
	return nil
}

// beUint reads a big-endian unsigned integer of 1-8 bytes.
func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
