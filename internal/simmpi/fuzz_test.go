package simmpi

import (
	"bytes"
	"testing"
)

// FuzzDecodeParts exercises the parts codec against arbitrary blobs: it
// must never panic, whatever it accepts must re-encode to the same bytes,
// and the encoding of any parts list — nil parts included — must decode
// back to it.
func FuzzDecodeParts(f *testing.F) {
	f.Add(encodeParts([][]byte{[]byte("ab"), nil, {}, []byte("xyz")}))
	f.Add(encodeParts(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // huge part count
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0, 'a'})
	f.Fuzz(func(t *testing.T, b []byte) {
		if parts, err := decodeParts(b); err == nil && !bytes.Equal(encodeParts(parts), b) {
			t.Fatal("accepted blob does not re-encode to itself")
		}
		// Derive a parts list from b: split on 0x00, and a part that is
		// exactly 0xff stands for a nil part.
		var parts [][]byte
		for _, p := range bytes.Split(b, []byte{0}) {
			if len(p) == 1 && p[0] == 0xff {
				p = nil
			}
			parts = append(parts, p)
		}
		got, err := decodeParts(encodeParts(parts))
		if err != nil {
			t.Fatalf("encoded parts rejected: %v", err)
		}
		if len(got) != len(parts) {
			t.Fatalf("decoded %d parts, encoded %d", len(got), len(parts))
		}
		for i := range parts {
			if (got[i] == nil) != (parts[i] == nil) || !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("part %d: decoded %q (nil %v), encoded %q (nil %v)", i, got[i], got[i] == nil, parts[i], parts[i] == nil)
			}
		}
	})
}
