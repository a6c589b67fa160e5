package store

import (
	"bytes"
	"testing"
)

// FuzzParseFrames exercises journal replay against arbitrary logs: it must
// never panic, must consume only a whole-frame prefix, and that prefix must
// be exactly the re-framed payloads it visited. A framed payload must
// parse back to itself.
func FuzzParseFrames(f *testing.F) {
	two := append(frame([]byte(`{"op":"admit"}`)), frame(nil)...)
	f.Add(two)
	f.Add(two[:len(two)-1])   // torn tail
	f.Add(append(two, 'x'))   // trailing garbage
	f.Add([]byte(frameMagic)) // short header
	corrupt := bytes.Clone(two)
	corrupt[frameHeader] ^= 0xff // CRC mismatch in the first payload
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		var reframed []byte
		clean, stop, err := parseFrames(b, func(p []byte) error {
			reframed = append(reframed, frame(p)...)
			return nil
		})
		if err != nil {
			t.Fatalf("visit never fails, parseFrames did: %v", err)
		}
		if clean < 0 || clean > int64(len(b)) {
			t.Fatalf("clean prefix %d of %d bytes", clean, len(b))
		}
		if !bytes.Equal(reframed, b[:clean]) {
			t.Fatal("visited payloads do not re-frame to the clean prefix")
		}
		if (stop == "") != (clean == int64(len(b))) {
			t.Fatalf("stop %q with %d of %d bytes clean", stop, clean, len(b))
		}

		framed := frame(b)
		var got [][]byte
		clean, stop, err = parseFrames(framed, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		if err != nil || stop != "" || clean != int64(len(framed)) {
			t.Fatalf("framed payload rejected: clean %d/%d stop %q err %v", clean, len(framed), stop, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], b) {
			t.Fatal("framed payload did not parse back to itself")
		}
	})
}

// FuzzUnframeResult exercises the shared-results-dir reader against
// arbitrary files: it must never panic, whatever it accepts must re-frame
// to the same bytes, and a framed payload must unframe to itself.
func FuzzUnframeResult(f *testing.F) {
	good := frameResult([]byte(`{"final_particles":3}`))
	f.Add(good)
	f.Add(good[:resultHeader-1])
	f.Add(frameResult(nil))
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		if payload, err := unframeResult(b); err == nil && !bytes.Equal(frameResult(payload), b) {
			t.Fatal("accepted result does not re-frame to its file bytes")
		}
		payload, err := unframeResult(frameResult(b))
		if err != nil || !bytes.Equal(payload, b) {
			t.Fatalf("framed payload did not unframe to itself: %v", err)
		}
	})
}
