package collector

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"lockdown/internal/flowrec"
)

func testRecords(n int) []flowrec.Record {
	now := time.Now().UTC().Truncate(time.Second)
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = flowrec.Record{
			Start:   now.Add(-time.Minute),
			End:     now,
			SrcIP:   netip.AddrFrom4([4]byte{10, 9, 0, byte(i + 1)}),
			DstIP:   netip.AddrFrom4([4]byte{10, 8, 0, 1}),
			SrcPort: uint16(1000 + i),
			DstPort: 443,
			Proto:   flowrec.ProtoTCP,
			Bytes:   uint64(100 + i),
			Packets: 2,
			SrcAS:   64700,
			DstAS:   15169,
		}
	}
	return recs
}

// collectBatch gathers up to want rows from the collector into one
// batch, waiting at most timeout. Received batches go back to the
// flowrec pool after their rows are copied; rows beyond want in the final
// datagram are dropped.
func collectBatch(c *Collector, want int, timeout time.Duration) *flowrec.Batch {
	out := flowrec.NewBatch(want)
	deadline := time.After(timeout)
	for out.Len() < want {
		select {
		case tb, ok := <-c.Tagged():
			if !ok {
				return out
			}
			out.AppendBatch(tb.Batch)
			flowrec.PutBatch(tb.Batch)
		case <-deadline:
			return out
		}
	}
	out.Truncate(want)
	return out
}

// roundTrip exports n test records in the given format to a fresh
// collector and returns the rows it delivered.
func roundTrip(t *testing.T, format Format, n int) *flowrec.Batch {
	t.Helper()
	col, err := NewTaggedCollector(format, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)
	defer col.Close()

	exp, err := NewExporter(format, col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatchAt(flowrec.FromRecords(testRecords(n)), time.Now()); err != nil {
		t.Fatal(err)
	}
	return collectBatch(col, n, 3*time.Second)
}

func TestRoundTripV5(t *testing.T) {
	got := roundTrip(t, FormatNetflowV5, 45).Records() // spans two v5 packets
	if len(got) != 45 {
		t.Fatalf("collected %d records, want 45", len(got))
	}
	if got[0].DstPort != 443 || got[0].Proto != flowrec.ProtoTCP {
		t.Errorf("record content mangled: %+v", got[0])
	}
}

func TestRoundTripV9(t *testing.T) {
	got := roundTrip(t, FormatNetflowV9, 10).Records()
	if len(got) != 10 {
		t.Fatalf("collected %d records, want 10", len(got))
	}
	if got[3].SrcAS != 64700 || got[3].DstAS != 15169 {
		t.Errorf("AS numbers mangled: %+v", got[3])
	}
}

func TestRoundTripIPFIX(t *testing.T) {
	got := roundTrip(t, FormatIPFIX, 250) // spans multiple messages
	if got.Len() != 250 {
		t.Fatalf("collected %d records, want 250", got.Len())
	}
}

func TestBatchRoundTripAllFormats(t *testing.T) {
	for _, tc := range []struct {
		format Format
		n      int
	}{
		{FormatNetflowV5, 45}, // spans two v5 packets
		{FormatNetflowV9, 10},
		{FormatIPFIX, 250}, // spans multiple messages
	} {
		got := roundTrip(t, tc.format, tc.n)
		if got.Len() != tc.n {
			t.Fatalf("%v: collected %d rows, want %d", tc.format, got.Len(), tc.n)
		}
		if got.DstPort[0] != 443 || got.Proto[0] != flowrec.ProtoTCP {
			t.Errorf("%v: row content mangled: %+v", tc.format, got.Record(0))
		}
	}
}

// TestRoundTripPreservesRows exports records through the collector and
// checks every decoded row equals the exported one, field for field.
func TestRoundTripPreservesRows(t *testing.T) {
	const n = 30
	want := testRecords(n)
	got := roundTrip(t, FormatIPFIX, n).Records()
	if len(got) != n {
		t.Fatalf("collected %d rows, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after the round trip: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestCollectorErrorsOnGarbage(t *testing.T) {
	col, err := NewTaggedCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)
	defer col.Close()

	exp, err := NewExporter(FormatNetflowV5, col.Addr()) // wrong format on purpose
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatchAt(flowrec.FromRecords(testRecords(1)), time.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-col.Errors():
		if e == nil {
			t.Error("expected a decode error")
		}
	case <-time.After(3 * time.Second):
		t.Error("no decode error reported for mismatched format")
	}
}

func TestCollectorCloseClosesChannel(t *testing.T) {
	col, err := NewTaggedCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		col.Run(ctx)
		close(done)
	}()
	col.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	if _, ok := <-col.Tagged(); ok {
		// Channel may still hold buffered batches in general, but here
		// nothing was sent, so it must be closed and empty.
		t.Error("batch channel not closed after Close")
	}
}

func TestCollectorContextCancel(t *testing.T) {
	col, err := NewTaggedCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		col.Run(ctx)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestFormatString(t *testing.T) {
	if FormatNetflowV5.String() != "netflow-v5" || FormatNetflowV9.String() != "netflow-v9" ||
		FormatIPFIX.String() != "ipfix" || Format(9).String() != "format(9)" {
		t.Error("Format.String values unexpected")
	}
}

func TestExporterBadAddress(t *testing.T) {
	if _, err := NewExporter(FormatIPFIX, "this is not an address"); err == nil {
		t.Error("bad exporter address accepted")
	}
	if _, err := NewTaggedCollector(FormatIPFIX, "not an address"); err == nil {
		t.Error("bad collector address accepted")
	}
}
