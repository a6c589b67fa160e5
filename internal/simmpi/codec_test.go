package simmpi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64sRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got := DecodeFloat64s(EncodeFloat64s(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaNs compare by bit pattern.
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DecodeFloat64s(EncodeFloat64s(nil)) != nil {
		t.Error("nil does not round-trip to nil")
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		got := DecodeInt64s(EncodeInt64s(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeFloat64sInto(t *testing.T) {
	vals := []float64{1.5, -2.25, 3}
	// Small buffer grows.
	buf := EncodeFloat64sInto(make([]byte, 2), vals)
	if len(buf) != 24 {
		t.Fatalf("len %d", len(buf))
	}
	dst := make([]float64, 3)
	DecodeFloat64sInto(dst, buf)
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("dst[%d] = %v", i, dst[i])
		}
	}
	// Large buffer is reused (no realloc).
	big := make([]byte, 100)
	out := EncodeFloat64sInto(big, vals)
	if &out[0] != &big[0] {
		t.Error("buffer not reused")
	}
}

func TestPartsRoundTrip(t *testing.T) {
	parts := [][]byte{[]byte("a"), nil, {}, []byte("long-payload-here")}
	got, err := decodeParts(encodeParts(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len %d", len(got))
	}
	if string(got[0]) != "a" || got[1] != nil || string(got[3]) != "long-payload-here" {
		t.Errorf("parts mismatch: %q", got)
	}
	// Empty non-nil part: zero length.
	if len(got[2]) != 0 {
		t.Error("empty part gained bytes")
	}
}

// TestDecodePartsTruncation pins the hardening: any prefix of a valid
// blob — and a few hand-corrupted shapes — must decode to a descriptive
// error, never a panic. Empty and short blobs are reachable under
// fault-injected delivery (a cross-matched tag delivers a payload of the
// wrong shape).
func TestDecodePartsTruncation(t *testing.T) {
	valid := encodeParts([][]byte{[]byte("abc"), nil, []byte("defghij")})
	if _, err := decodeParts(valid); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
	// Every strict prefix must error (a prefix can never be valid: the
	// decoder demands the byte stream end exactly at the declared parts).
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decodeParts(valid[:cut]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(valid))
		}
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"nil", nil},
		{"empty", []byte{}},
		{"count-only-huge", []byte{0xff, 0xff, 0xff, 0x7f}},
		{"count-exceeds-blob", append([]byte{5, 0, 0, 0}, 1, 0, 0, 0, 'x')},
		{"part-len-exceeds-blob", append([]byte{1, 0, 0, 0}, 200, 0, 0, 0, 'x', 'y')},
		{"trailing-garbage", append(append([]byte{}, valid...), 0xde, 0xad)},
	}
	for _, tc := range cases {
		if _, err := decodeParts(tc.blob); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestGatherScatterCodec(t *testing.T) {
	vec := []float64{0, 10, 20, 30, 40, 50}
	idx := []int32{1, 4, 2}
	buf := EncodeFloat64sGatherInto(make([]byte, 2), vec, idx) // small buffer grows
	if len(buf) != 24 {
		t.Fatalf("len %d", len(buf))
	}
	dst := []float64{-1, -1, -1, -1, -1, -1}
	DecodeFloat64sScatter(dst, idx, buf)
	want := []float64{-1, 10, 20, -1, 40, -1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Large buffer is reused (no realloc).
	big := make([]byte, 100)
	out := EncodeFloat64sGatherInto(big, vec, idx)
	if &out[0] != &big[0] {
		t.Error("buffer not reused")
	}
	// Empty index list encodes to an empty payload and scatters nothing.
	if got := EncodeFloat64sGatherInto(nil, vec, nil); len(got) != 0 {
		t.Errorf("empty gather encoded %d bytes", len(got))
	}
	DecodeFloat64sScatter(dst, nil, nil)
}

func TestDecodeFloat64sScatterSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched scatter payload did not panic")
		}
	}()
	DecodeFloat64sScatter(make([]float64, 4), []int32{0, 1}, make([]byte, 8))
}

func TestDecodeFloat64sScatterAdd(t *testing.T) {
	vec := []float64{0, 10, 20, 30, 40, 50}
	idx := []int32{1, 4, 2}
	buf := EncodeFloat64sGatherInto(nil, vec, idx)
	dst := []float64{1, 2, 3, 4, 5, 6}
	DecodeFloat64sScatterAdd(dst, idx, buf)
	want := []float64{1, 12, 23, 4, 45, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// A second application accumulates again rather than overwriting.
	DecodeFloat64sScatterAdd(dst, idx, buf)
	if dst[1] != 22 || dst[4] != 85 || dst[2] != 43 {
		t.Fatalf("second scatter-add did not accumulate: %v", dst)
	}
	DecodeFloat64sScatterAdd(dst, nil, nil) // empty exchange is a no-op
}

func TestDecodeFloat64sScatterAddSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched scatter-add payload did not panic")
		}
	}()
	DecodeFloat64sScatterAdd(make([]float64, 4), []int32{0, 1}, make([]byte, 8))
}

func TestDecodeFloat64sGather(t *testing.T) {
	blob := EncodeFloat64s([]float64{0, 10, 20, 30, 40, 50})
	dst := make([]float64, 3)
	DecodeFloat64sGather(dst, []int32{1, 5, 2}, blob)
	want := []float64{10, 50, 20}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	DecodeFloat64sGather(nil, nil, blob) // no ghosts is a no-op
	for _, bad := range []struct {
		dst []float64
		idx []int32
	}{
		{make([]float64, 1), []int32{6}},  // past the payload
		{make([]float64, 1), []int32{-1}}, // negative index
		{make([]float64, 2), []int32{0}},  // dst and idx disagree
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gather of %v into %d values did not panic", bad.idx, len(bad.dst))
				}
			}()
			DecodeFloat64sGather(bad.dst, bad.idx, blob)
		}()
	}
}
