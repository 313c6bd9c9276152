package simd

import (
	"math"
	"testing"
	"testing/quick"
)

// Scalar reference implementations: the one-line obvious loops every
// kernel must match exactly, bit for bit, over full value ranges.

func refSumUint64(v []uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

func refScatterAddUint64(acc *[Lanes]uint64, lanes []uint8, vals []uint64) {
	n := min(len(lanes), len(vals))
	for i := 0; i < n; i++ {
		acc[lanes[i]] += vals[i]
	}
}

func refScatterCount(acc *[Lanes]uint64, lanes []uint8) {
	for _, l := range lanes {
		acc[l]++
	}
}

func refScatterAddFloat64(acc *[Lanes]float64, lanes []uint8, vals []uint64) {
	n := min(len(lanes), len(vals))
	for i := 0; i < n; i++ {
		acc[lanes[i]] += float64(vals[i])
	}
}

func refScatterCountBytePairs(acc *[PairLanes]uint64, hi, lo []uint8) {
	n := min(len(hi), len(lo))
	for i := 0; i < n; i++ {
		acc[int(hi[i]&15)<<8|int(lo[i])]++
	}
}

func quickCfg(t *testing.T) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: 500}
}

func TestScatterAddUint64Quick(t *testing.T) {
	f := func(lanes []uint8, vals []uint64) bool {
		var got, want [Lanes]uint64
		ScatterAddUint64(&got, lanes, vals)
		refScatterAddUint64(&want, lanes, vals)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCountQuick(t *testing.T) {
	f := func(lanes []uint8) bool {
		var got, want [Lanes]uint64
		ScatterCount(&got, lanes)
		refScatterCount(&want, lanes)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScatterAddFloat64Quick(t *testing.T) {
	f := func(lanes []uint8, vals []uint64) bool {
		var got, want [Lanes]float64
		ScatterAddFloat64FromUint64(&got, lanes, vals)
		refScatterAddFloat64(&want, lanes, vals)
		// Bit comparison, not ==: the contract is identical rounding,
		// and NaN/negative-zero distinctions must not slip through.
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCountBytePairsQuick(t *testing.T) {
	f := func(hi, lo []uint8) bool {
		var got, want [PairLanes]uint64
		ScatterCountBytePairs(&got, hi, lo)
		refScatterCountBytePairs(&want, hi, lo)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestFloatExactnessBoundary pins the 2^53 cases: float64 accumulation
// stops being exact there, and the kernel must reproduce the *same*
// inexact results as row-order scalar accumulation — not exact uint64
// answers converted at the end.
func TestFloatExactnessBoundary(t *testing.T) {
	const maxExact = uint64(1) << 53 // 9007199254740992
	cases := [][]uint64{
		{maxExact, 1},                         // 2^53 + 1 rounds back to 2^53
		{maxExact - 1, 1, 1},                  // crosses the boundary mid-sum
		{maxExact, 1, 1},                      // two lost increments
		{1, maxExact},                         // order matters near the boundary
		{maxExact, maxExact, maxExact},        // far past the boundary
		{math.MaxUint64, 1},                   // extreme magnitude
		{maxExact + 2, 3, maxExact - 5},       // mixed offsets
		{0, maxExact, 0, 1, 0, 1, 0, 1, 0, 1}, // repeated lost ulps
	}
	for ci, vals := range cases {
		lanes := make([]uint8, len(vals)) // all into lane 0
		var got, want [Lanes]float64
		ScatterAddFloat64FromUint64(&got, lanes, vals)
		refScatterAddFloat64(&want, lanes, vals)
		if math.Float64bits(got[0]) != math.Float64bits(want[0]) {
			t.Errorf("case %d: got %v (bits %x), want %v (bits %x)",
				ci, got[0], math.Float64bits(got[0]), want[0], math.Float64bits(want[0]))
		}
		// And confirm the test is testing something: past the boundary
		// the float result genuinely differs from the exact uint64 sum.
		if ci == 0 {
			exact := refSumUint64(vals) // 2^53 + 1
			if uint64(want[0]) == exact {
				t.Errorf("case %d: expected inexact float accumulation at the 2^53 boundary", ci)
			}
		}
	}
}

// TestUint64ExactnessPastFloatBoundary confirms the integer kernels stay
// exact where float64 would round.
func TestUint64ExactnessPastFloatBoundary(t *testing.T) {
	const maxExact = uint64(1) << 53
	vals := []uint64{maxExact, 1, 1, 1}
	lanes := []uint8{7, 7, 7, 7}
	var acc [Lanes]uint64
	ScatterAddUint64(&acc, lanes, vals)
	if acc[7] != maxExact+3 {
		t.Fatalf("ScatterAddUint64 lane 7 = %d, want %d", acc[7], maxExact+3)
	}
}

// TestSumWraparound: uint64 lane sums wrap modulo 2^64 like the
// reference.
func TestSumWraparound(t *testing.T) {
	vals := []uint64{math.MaxUint64, math.MaxUint64, 5}
	var acc [Lanes]uint64
	ScatterAddUint64(&acc, make([]uint8, len(vals)), vals)
	if got, want := acc[0], refSumUint64(vals); got != want {
		t.Fatalf("ScatterAddUint64 wrap = %d, want %d", got, want)
	}
}

// TestMismatchedLengths pins the clamp-to-shorter contract.
func TestMismatchedLengths(t *testing.T) {
	lanes := []uint8{1, 2, 3, 4, 5}
	vals := []uint64{10, 20, 30}

	var acc [Lanes]uint64
	ScatterAddUint64(&acc, lanes, vals)
	if acc[1] != 10 || acc[2] != 20 || acc[3] != 30 || acc[4] != 0 || acc[5] != 0 {
		t.Fatalf("ScatterAddUint64 mismatched lengths: %v", acc[:6])
	}

	var pacc [PairLanes]uint64
	ScatterCountBytePairs(&pacc, []uint8{1, 2, 3}, []uint8{9})
	if pacc[1<<8|9] != 1 || pacc[2<<8] != 0 {
		t.Fatalf("ScatterCountBytePairs mismatched lengths miscounted")
	}
}

// TestPairHiMasking: hi lanes above 15 fold into hi&15 — the kernel must
// not index out of bounds and must agree with the reference on the fold.
func TestPairHiMasking(t *testing.T) {
	var got, want [PairLanes]uint64
	hi := []uint8{0, 15, 16, 31, 255}
	lo := []uint8{0, 255, 1, 2, 3}
	ScatterCountBytePairs(&got, hi, lo)
	refScatterCountBytePairs(&want, hi, lo)
	if got != want {
		t.Fatal("hi-mask fold mismatch vs reference")
	}
	if got[0] != 1 || got[15<<8|255] != 1 || got[0<<8|1] != 1 || got[15<<8|2] != 1 || got[15<<8|3] != 1 {
		t.Fatalf("unexpected fold positions: %v", got[:16])
	}
}

func TestSelect(t *testing.T) {
	if Select8(true, 200, 100) != 200 || Select8(false, 200, 100) != 100 {
		t.Fatal("Select8 broken")
	}
	if Select8(true, math.MaxUint8, 0) != math.MaxUint8 || Select8(false, math.MaxUint8, 0) != 0 {
		t.Fatal("Select8 extremes broken")
	}
	f8 := func(cond bool, a, b uint8) bool {
		want := b
		if cond {
			want = a
		}
		return Select8(cond, a, b) == want
	}
	if err := quick.Check(f8, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyAndTiny covers the length clamping at every small size.
func TestEmptyAndTiny(t *testing.T) {
	for n := 0; n <= 9; n++ {
		v64 := make([]uint64, n)
		lanes := make([]uint8, n)
		for i := 0; i < n; i++ {
			v64[i] = uint64(i)*1234567 + 1
			lanes[i] = uint8(i * 37)
		}
		var got, want [Lanes]uint64
		ScatterAddUint64(&got, lanes, v64)
		refScatterAddUint64(&want, lanes, v64)
		if got != want {
			t.Fatalf("ScatterAddUint64 n=%d", n)
		}
	}
}
