package disk

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// codecPatterns are float64 bit patterns a conversion could disturb: both
// zeros, both infinities, quiet and signalling NaNs with payloads, the
// subnormal extremes of either sign, and ordinary values.
var codecPatterns = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // −0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // −Inf
	0x7ff8000000000000, // the canonical quiet NaN
	0x7ff8000000000001, // quiet NaN, low payload bit
	0xfff8dead0000beef, // negative quiet NaN with a payload
	0x7ff0000000000001, // signalling NaN, smallest payload
	0x7ff7ffffffffffff, // signalling NaN, largest payload
	0x0000000000000001, // smallest subnormal
	0x000fffffffffffff, // largest subnormal
	0x8000000000000001, // negative subnormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest finite
	0x3ff8000000000000, // 1.5
	0x0123456789abcdef,
}

// checkCodec runs raw's whole 8-byte words through both directions of the
// copy codec and of the per-element loop, and fails unless all four
// agree with raw bit for bit.
func checkCodec(t *testing.T, raw []byte) {
	t.Helper()
	raw = raw[:len(raw)/8*8]
	n := len(raw) / 8
	viaCopy, viaLoop := make([]float64, n), make([]float64, n)
	decode(viaCopy, raw)
	decodeLoop(viaLoop, raw)
	for i := range n {
		want := binary.LittleEndian.Uint64(raw[i*8:])
		if c, l := math.Float64bits(viaCopy[i]), math.Float64bits(viaLoop[i]); c != want || l != want {
			t.Fatalf("decode element %d: copy %#016x, loop %#016x, want %#016x", i, c, l, want)
		}
	}
	outCopy, outLoop := make([]byte, len(raw)), make([]byte, len(raw))
	encode(outCopy, viaLoop)
	encodeLoop(outLoop, viaLoop)
	if !bytes.Equal(outCopy, raw) || !bytes.Equal(outLoop, raw) {
		t.Fatalf("encode: copy %x, loop %x, want %x", outCopy, outLoop, raw)
	}
}

// TestCodecCopyMatchesLoop pins the copy codec to the per-element loop on
// every pattern alone, all of them in one slice, and the empty slice.
func TestCodecCopyMatchesLoop(t *testing.T) {
	var all []byte
	for _, p := range codecPatterns {
		one := binary.LittleEndian.AppendUint64(nil, p)
		checkCodec(t, one)
		all = append(all, one...)
	}
	checkCodec(t, all)
	checkCodec(t, nil)
}

// FuzzCodec checks that the copy codec and the per-element loop agree bit
// for bit, in both directions, on arbitrary bytes read as raw uint64s.
func FuzzCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) { checkCodec(t, raw) })
}
