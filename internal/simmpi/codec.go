package simmpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Little-endian codecs used by the collectives and by callers serializing
// numeric payloads. A nil slice round-trips to nil.

func encodeFloat64s(v []float64) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func decodeFloat64s(b []byte) []float64 {
	if b == nil {
		return nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func encodeInt64s(v []int64) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	if b == nil {
		return nil
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// encodeParts packs a slice of byte slices with a length prefix per part
// (-1 encodes a nil part).
func encodeParts(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	out = append(out, hdr[:]...)
	for _, p := range parts {
		if p == nil {
			binary.LittleEndian.PutUint32(hdr[:], 0xffffffff)
			out = append(out, hdr[:]...)
			continue
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

// decodeParts inverts encodeParts. Every index into b is bounds-checked
// first: a truncated or cross-matched blob (reachable when delivery is
// fault-injected or a tag is mis-registered) must surface as a
// descriptive error, not a slice-out-of-range panic deep in a collective.
func decodeParts(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("simmpi: parts blob truncated: %d bytes, need 4 for the part count", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	// Each part costs at least its 4-byte length prefix; reject counts
	// the blob cannot possibly hold before allocating n headers.
	if 4+4*n > len(b) {
		return nil, fmt.Errorf("simmpi: parts blob declares %d parts but holds %d bytes (headers alone need %d)",
			n, len(b), 4+4*n)
	}
	out := make([][]byte, n)
	off := 4
	for i := range out {
		if off+4 > len(b) {
			return nil, fmt.Errorf("simmpi: parts blob truncated in part %d/%d header (offset %d of %d)",
				i, n, off, len(b))
		}
		l := binary.LittleEndian.Uint32(b[off:])
		off += 4
		if l == 0xffffffff {
			continue
		}
		if int64(off)+int64(l) > int64(len(b)) {
			return nil, fmt.Errorf("simmpi: parts blob truncated in part %d/%d body: declares %d bytes, %d remain",
				i, n, l, len(b)-off)
		}
		out[i] = b[off : off+int(l) : off+int(l)]
		off += int(l)
	}
	if off != len(b) {
		return nil, fmt.Errorf("simmpi: parts blob has %d trailing bytes after %d declared parts", len(b)-off, n)
	}
	return out, nil
}

// EncodeFloat64s is the exported codec for callers shipping float64 vectors.
func EncodeFloat64s(v []float64) []byte { return encodeFloat64s(v) }

// EncodeFloat64sInto encodes v into buf, growing it if needed, and returns
// the encoded slice. Callers reusing buf across messages must be sure the
// previous message has been fully consumed (simmpi does not copy payloads).
func EncodeFloat64sInto(buf []byte, v []float64) []byte {
	need := 8 * len(v)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// DecodeFloat64sInto decodes b into dst (which must have length len(b)/8).
func DecodeFloat64sInto(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// DecodeFloat64s inverts EncodeFloat64s.
func DecodeFloat64s(b []byte) []float64 { return decodeFloat64s(b) }

// EncodeFloat64sGatherInto encodes vec's entries at the given indices into
// buf (grown if needed) and returns the encoded slice: the k-th float64 of
// the result is vec[idx[k]]. This is the packing half of an index-list
// scatter/gather (halo) exchange. The buffer-reuse caveat of
// EncodeFloat64sInto applies: simmpi does not copy payloads, so buf must
// not be repacked until the previous message carrying it was consumed.
func EncodeFloat64sGatherInto(buf []byte, vec []float64, idx []int32) []byte {
	need := 8 * len(idx)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	for k, i := range idx {
		binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(vec[i]))
	}
	return buf
}

// DecodeFloat64sScatter decodes b into dst at the given indices:
// dst[idx[k]] = the k-th float64 of b; other entries are untouched. It is
// the unpacking half of an index-list halo exchange. A payload whose size
// disagrees with the index list is transport corruption (mis-matched tag
// or truncated blob) and panics descriptively, like the collectives'
// internal decode paths, instead of scattering garbage.
func DecodeFloat64sScatter(dst []float64, idx []int32, b []byte) {
	if len(b) != 8*len(idx) {
		panic(fmt.Sprintf("simmpi: scatter payload holds %d bytes for %d indices (want %d)",
			len(b), len(idx), 8*len(idx)))
	}
	for k, i := range idx {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
}

// DecodeFloat64sGather decodes selected entries of b into dst: dst[k] =
// the idx[k]-th float64 of b. It reads a few entries of a broadcast
// vector without decoding the rest. An index outside the payload is
// transport corruption and panics descriptively, like
// DecodeFloat64sScatter.
func DecodeFloat64sGather(dst []float64, idx []int32, b []byte) {
	if len(dst) != len(idx) {
		panic(fmt.Sprintf("simmpi: gather into %d values from %d indices", len(dst), len(idx)))
	}
	for k, i := range idx {
		if uint(i) >= uint(len(b)/8) {
			panic(fmt.Sprintf("simmpi: gather index %d outside a payload of %d float64s", i, len(b)/8))
		}
		dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*int(i):]))
	}
}

// DecodeFloat64sScatterAdd is DecodeFloat64sScatter with additive
// semantics: dst[idx[k]] += the k-th float64 of b. It is the reduction
// half of the boundary-only charge exchange, where several ranks'
// contributions at a shared partition-boundary node must sum; callers fix
// the summation order by fixing the order of their ScatterAdd calls.
func DecodeFloat64sScatterAdd(dst []float64, idx []int32, b []byte) {
	if len(b) != 8*len(idx) {
		panic(fmt.Sprintf("simmpi: scatter-add payload holds %d bytes for %d indices (want %d)",
			len(b), len(idx), 8*len(idx)))
	}
	for k, i := range idx {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
}

// EncodeInt64s is the exported codec for callers shipping int64 vectors.
func EncodeInt64s(v []int64) []byte { return encodeInt64s(v) }

// DecodeInt64s inverts EncodeInt64s.
func DecodeInt64s(b []byte) []int64 { return decodeInt64s(b) }
