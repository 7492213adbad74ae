package topo

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// wiringFingerprint hashes every OutWire(s, k, d, p) of mb in (s, k, d, p)
// order, so any change to where a wire leads, or to how the table is laid
// out behind OutWire, changes the hash.
func wiringFingerprint(mb *MultiButterfly) uint64 {
	h := fnv.New64a()
	var buf [6]byte
	for s := 0; s < mb.Stages; s++ {
		for k := 0; k < mb.SwitchesPerStage(); k++ {
			for d := 0; d < 2; d++ {
				for p := 0; p < mb.M; p++ {
					w := mb.OutWire(s, int32(k), d, p)
					binary.LittleEndian.PutUint32(buf[0:4], uint32(w.Switch))
					binary.LittleEndian.PutUint16(buf[4:6], uint16(w.Port))
					h.Write(buf[:])
				}
			}
		}
	}
	return h.Sum64()
}

// TestWiringFingerprint pins the wiring both constructors build, so a
// change to the table's layout is proven to leave every wire where it was.
// The hashes are those of the per-stage table the flat one replaced.
func TestWiringFingerprint(t *testing.T) {
	random, err := NewMultiButterfly(1024, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := NewRegularButterfly(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		mb   *MultiButterfly
		want uint64
	}{
		{"NewMultiButterfly(1024, 4, 1)", random, 0x544019612e75e571},
		{"NewRegularButterfly(1024, 4)", regular, 0x3830628a9c76725},
	} {
		if got := wiringFingerprint(c.mb); got != c.want {
			t.Errorf("%s wiring fingerprint = %#x, want %#x", c.name, got, c.want)
		}
	}
}
