package main

import (
	"math"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"4096", 4096, false},
		{"64K", 64 << 10, false},
		{"32m", 32 << 20, false},
		{"2GiB", 2 << 30, false},
		{" 8 MB ", 8 << 20, false},
		{"8589934591G", 8589934591 << 30, false}, // largest G value that fits
		{"8589934592G", 0, true},                 // n * 2^30 == 2^63 overflows
		{"9223372036854775807", math.MaxInt64, false},
		{"9223372036854775808", 0, true},
		{"-1", 0, true},
		{"-1K", 0, true},
		{"lots", 0, true},
		{"1T", 0, true},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseSize(%q) error = %v, want error %v", c.in, err, c.wantErr)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCheckScale(t *testing.T) {
	for _, v := range []float64{0, 0.05, 0.5, 1, 4} {
		if err := checkScale(v); err != nil {
			t.Errorf("checkScale(%v) = %v, want nil", v, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		if err := checkScale(v); err == nil {
			t.Errorf("checkScale(%v) accepted", v)
		}
	}
}
