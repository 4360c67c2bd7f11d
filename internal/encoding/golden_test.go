package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// goldenStreams are the fixed data streams the encoder pins replay:
// sequential fetch, an address bus (runs, far jumps, holds), uniformly
// random words, and a DA-like stream cycling through a small working set
// of records with strided field offsets.
func goldenStreams() map[string][]uint32 {
	const n = 4096
	seq := make([]uint32, n)
	for i := range seq {
		seq[i] = 0x0040_0000 + uint32(4*i)
	}

	addr := make([]uint32, n)
	w, lcg := uint32(0x4000_1000), uint32(12345)
	for i := range addr {
		lcg = lcg*1664525 + 1013904223
		switch lcg % 10 {
		case 0:
			w = lcg * 2654435761 // far jump
		case 1:
			// hold
		default:
			w += 4
		}
		addr[i] = w
	}

	rng := rand.New(rand.NewSource(0x5eed))
	random := make([]uint32, n)
	for i := range random {
		random[i] = rng.Uint32()
	}

	var bases [48]uint32
	for i := range bases {
		bases[i] = 0x1000_0000 | rng.Uint32()&0x00FF_FFC0
	}
	da := make([]uint32, n)
	for i := range da {
		r := rng.Intn(len(bases))
		if rng.Intn(2) == 0 {
			r &= 7 // half the accesses hit the eight hottest records
		}
		da[i] = bases[r] + uint32(8*rng.Intn(8))
	}
	return map[string][]uint32{"seq": seq, "address": addr, "random": random, "da": da}
}

// goldenEncoders returns every scheme the registry accepts plus the
// padded wrappers the adaptive controller builds.
func goldenEncoders(t *testing.T) map[string]Encoder {
	t.Helper()
	encs := map[string]Encoder{}
	for _, name := range AllSchemes() {
		enc, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		encs[name] = enc
	}
	encs["Pad(BI,36)"] = Pad(NewBI(), 36)
	encs["Pad(OEBI,36)"] = Pad(NewOEBI(), 36)
	encs["Pad(CBI,36)"] = Pad(NewCBI(), 36)
	encs["Pad(CoolSpread,36)"] = Pad(NewCoolSpread(), 36)
	return encs
}

// encodedDigest is the FNV-64a digest of the encoder's width followed by
// every physical word it emits for the stream, little-endian.
func encodedDigest(enc Encoder, words []uint32) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(enc.Width()))
	h.Write(buf[:])
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], enc.Encode(w))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// encodedGolden pins every encoder's physical output, recorded with the
// original bit-serial coupling cost: a change to any encoding decision
// shows here, independently of the cost function the encoders call.
var encodedGolden = map[string]uint64{
	"BI/address":                 0x8d39149901f09d50,
	"BI/da":                      0x4b39489fe6265823,
	"BI/random":                  0x49070e0ab817c380,
	"BI/seq":                     0xe4ca061248b86984,
	"CBI/address":                0x32ba898cf1987c35,
	"CBI/da":                     0x90fbd624400eeb9e,
	"CBI/random":                 0x5ff957d511d5fc39,
	"CBI/seq":                    0xe4ca061248b86984,
	"CoolCap/address":            0x596ba48d97fd266f,
	"CoolCap/da":                 0x9a5ecc34b154cfd5,
	"CoolCap/random":             0x77d7585079901d4b,
	"CoolCap/seq":                0x7542cfeca3d7eb61,
	"CoolSpread/address":         0xb487f8a2d94c0186,
	"CoolSpread/da":              0xbc5113ccee4db803,
	"CoolSpread/random":          0x1658fcc8dbbf118f,
	"CoolSpread/seq":             0x8b09546fc503c325,
	"Gray/address":               0x4c8e4c2666f8aada,
	"Gray/da":                    0x1537a0ebafcc289f,
	"Gray/random":                0x0e1720ee20744ade,
	"Gray/seq":                   0xa782503004e0f3a5,
	"OEBI/address":               0x92ee31250d67b01c,
	"OEBI/da":                    0x8ab34c210d7bf140,
	"OEBI/random":                0x61185d81f0d27379,
	"OEBI/seq":                   0xb5bdaec6bff089e7,
	"Pad(BI,36)/address":         0x49ca49ee3cb4ad89,
	"Pad(BI,36)/da":              0xa0c54757b995fbb6,
	"Pad(BI,36)/random":          0x319535b5745a5665,
	"Pad(BI,36)/seq":             0xe5911b99f033e521,
	"Pad(CBI,36)/address":        0xc583c62e73fbc184,
	"Pad(CBI,36)/da":             0xc45078adb8d8f1e3,
	"Pad(CBI,36)/random":         0x5b52f9f6b56c4da4,
	"Pad(CBI,36)/seq":            0xe5911b99f033e521,
	"Pad(CoolSpread,36)/address": 0xfa91efec45849d2a,
	"Pad(CoolSpread,36)/da":      0xcdfbf5a6dad30447,
	"Pad(CoolSpread,36)/random":  0xb728e64457a103bb,
	"Pad(CoolSpread,36)/seq":     0x097235849e836f61,
	"Pad(OEBI,36)/address":       0x5ead5e5c9f16ab4e,
	"Pad(OEBI,36)/da":            0x932076da5591771e,
	"Pad(OEBI,36)/random":        0x65ab5813e8cebff3,
	"Pad(OEBI,36)/seq":           0x7be4270c81a47321,
	"T0/address":                 0xd692c6f5f318c72f,
	"T0/da":                      0xab696f816a765fbf,
	"T0/random":                  0x6a88d7637ce75198,
	"T0/seq":                     0xb55346d58ca82ff5,
	"Unencoded/address":          0x2dce79ff57998918,
	"Unencoded/da":               0xab42cb916d91d8be,
	"Unencoded/random":           0xb96d8f638662f179,
	"Unencoded/seq":              0x7a423c0cbc105da5,
}

func TestEncodedWordsGolden(t *testing.T) {
	streams := goldenStreams()
	for name, enc := range goldenEncoders(t) {
		for _, sname := range []string{"seq", "address", "random", "da"} {
			enc.Reset()
			key := name + "/" + sname
			got := encodedDigest(enc, streams[sname])
			if want, ok := encodedGolden[key]; !ok || got != want {
				t.Errorf("%s: digest %#016x, want %#016x", key, got, want)
			}
		}
	}
}
