package main

import (
	"testing"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/core"
)

func TestWireShapesRoundTrip(t *testing.T) {
	for name, msgs := range map[string][]core.Message{
		"pif 64 B":       pifShape(bytesBody(1, 0, 0), 16),
		"pif 4 KiB JSON": docShape(1),
		"flood 256 B":    floodShape(1),
	} {
		enc, dec, bpm, err := wireCost(msgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc <= 0 || dec <= 0 || bpm < float64(len(msgs[0].B.Blob)) {
			t.Fatalf("%s: encode %v ns, decode %v ns, %v bytes/msg", name, enc, dec, bpm)
		}
	}
}

func TestFloodBodyCheck(t *testing.T) {
	msgs := floodShape(7)
	f := &floodNode{pattern: msgs[0].B.Blob[floodHdr:]}
	b := append([]byte(nil), msgs[0].B.Blob...)
	if !f.intact(b) {
		t.Fatal("sealed body reported damaged")
	}
	for _, i := range []int{0, 5, 12, 17, floodHdr, floodBody - 1} {
		d := append([]byte(nil), b...)
		d[i] ^= 0x40
		if f.intact(d) {
			t.Errorf("body with byte %d flipped reported intact", i)
		}
	}
	if f.intact(b[:floodBody-1]) {
		t.Error("short body reported intact")
	}
}

func TestPIFFeedbackCheck(t *testing.T) {
	w := &pifWorkload[doc]{expect: transformDoc, equal: func(a, b doc) bool { return a == b }}
	b := docBody(3, 1, 4)
	good := func() []snapstab.TypedFeedback[doc] {
		var fbs []snapstab.TypedFeedback[doc]
		for q := 0; q < pifN; q++ {
			if q != 1 {
				fbs = append(fbs, snapstab.TypedFeedback[doc]{From: q, Value: transformDoc(q, 1, b)})
			}
		}
		return fbs
	}
	if err := w.check(good(), 1, b); err != nil {
		t.Fatalf("exact feedback rejected: %v", err)
	}
	bad := map[string]func([]snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc]{
		"missing":   func(f []snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc] { return f[1:] },
		"duplicate": func(f []snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc] { f[1].From = f[0].From; return f },
		"initiator": func(f []snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc] { f[0].From = 1; return f },
		"value":     func(f []snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc] { f[2].Value.Check++; return f },
		"echo":      func(f []snapstab.TypedFeedback[doc]) []snapstab.TypedFeedback[doc] { f[3].Value = b; return f },
	}
	for name, mutate := range bad {
		if err := w.check(mutate(good()), 1, b); err == nil {
			t.Errorf("%s feedback accepted", name)
		}
	}
}
