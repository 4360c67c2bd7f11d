package energy

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/itrs"
)

// goldenWords are the fixed bus-word streams the energy pins replay,
// 64 bits wide so every tested width sees switching on all its wires.
func goldenWords() map[string][]uint64 {
	const n = 1024
	seq := make([]uint64, n)
	for i := range seq {
		seq[i] = 0x0000_7f00_0040_0000 + uint64(4*i)
	}

	addr := make([]uint64, n)
	w, lcg := uint64(0x0000_7f00_4000_1000), uint64(12345)
	for i := range addr {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		switch (lcg >> 33) % 10 {
		case 0:
			w = lcg * 0x9e3779b97f4a7c15 // far jump
		case 1:
			// hold
		default:
			w += 4
		}
		addr[i] = w
	}

	rng := rand.New(rand.NewSource(0x5eed))
	random := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64()
	}
	return map[string][]uint64{"seq": seq, "address": addr, "random": random}
}

// transitionDigest is the FNV-64a digest of the Float64bits of every
// per-line LineEnergy and the returned total of each transition along
// the stream.
func transitionDigest(t *testing.T, m *Model, words []uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(e LineEnergy) {
		for _, f := range [3]float64{e.Self, e.CoupAdj, e.CoupNonAdj} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	out := make([]LineEnergy, m.N())
	prev := uint64(0)
	for _, cur := range words {
		total, err := m.Transition(prev, cur, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out {
			put(e)
		}
		put(total)
		prev = cur
	}
	return h.Sum64()
}

// transitionGolden pins the per-line and total transition energies,
// Float64bits-exact, recorded with the original pairwise kernel. Keys are
// node/depth/width; values are the seq, address and random digests.
var transitionGolden = map[string][3]uint64{
	"130nm/0/32":  {0x02befd174b82c5d3, 0x745d733ae7be1e58, 0x72cdadc7468ddcb3},
	"130nm/0/33":  {0x2d7632a484d6f493, 0x67f5059434eab90f, 0x0be150e75df2773d},
	"130nm/0/34":  {0xf9bd0de9a3073553, 0xc1da750f4ebca7ca, 0xcf71e4b496039526},
	"130nm/0/64":  {0x0143666909b1ebaf, 0x6028e9ed9f46dcd6, 0x43945b101af850f1},
	"130nm/1/32":  {0x50e9cd27c7028ce3, 0xc46642e1f75e6b4d, 0xa3ae24ac31927f4d},
	"130nm/1/33":  {0x9d9dfcdeb441ba03, 0x79110d4304cea6da, 0x99e0140f33073ed7},
	"130nm/1/34":  {0xba179498fa9ec6a3, 0x82f6a3319fce0e4b, 0x2d261aba68a4917e},
	"130nm/1/64":  {0x34aa1b631fc62e93, 0x964a29a1c664c18b, 0x016aa597b1104e1e},
	"130nm/2/32":  {0x6731607f33137c0c, 0x1e60b8b7d9a5de38, 0x1a554c08be7a4ed1},
	"130nm/2/33":  {0xb105f63062743bec, 0xde5264863a80e3a6, 0xf9033653b711b7fa},
	"130nm/2/34":  {0x55d70d61f4022dcc, 0xac768983cbaff54c, 0x8713958bc97bdb9a},
	"130nm/2/64":  {0x93fb7fce063150af, 0x54e00d6cc7e1cdaa, 0x738c7748ebf50e82},
	"130nm/-1/32": {0x5d1199dc4dc7f8d0, 0xfe5a53ba2cd69bcc, 0x5f9876f8788c5e66},
	"130nm/-1/33": {0x44c1bb6cc010fd50, 0x6b01f9d51e04b5f7, 0xbeddbba075cbfcfc},
	"130nm/-1/34": {0x82626312a2603bd0, 0x9f57eb2ab64f43ae, 0x340db65a9ddc33fb},
	"130nm/-1/64": {0xd0b464bc0c56ebd8, 0x8c814fcae943cabb, 0x379c192dc2d85cec},
	"90nm/0/32":   {0xf5e96975081375c5, 0x2aa2676b88f1275b, 0xed1ccb6378d1d675},
	"90nm/0/33":   {0x5ea72db85f09d245, 0x7a4c51b2e0ffc558, 0xa23a585a5e52695e},
	"90nm/0/34":   {0x6139feebda060e45, 0x52b7f211cbc19232, 0x0d880f148bf2598b},
	"90nm/0/64":   {0x577cc983538a93dc, 0x4cc8eeb2f34f0027, 0x9fa6079c0e9a47f6},
	"90nm/1/32":   {0xeae980e1d01ee47d, 0xee64c9bb49fe0f16, 0x0f76d672dba2dcc3},
	"90nm/1/33":   {0x0c2708cbd8ffdc5d, 0x67f31221bb28d876, 0xa81220fc7abe3ba7},
	"90nm/1/34":   {0xba0b2b4f239d6f3d, 0x5cacad90e189c8e4, 0x63333b8021284b54},
	"90nm/1/64":   {0xba3f4822225a8cc8, 0x46071ee2f34802b9, 0x2d1d0dceb82e8d49},
	"90nm/2/32":   {0x33cd93dfac0d30c5, 0x82bea830e79de38b, 0x81695839789e5a5f},
	"90nm/2/33":   {0x8172ea34a59464e5, 0x60df8d089361f8f9, 0x44d93189b7909136},
	"90nm/2/34":   {0xf92b8c205aa8aa05, 0x2328e41b5c76da38, 0x6e7655a6bb528723},
	"90nm/2/64":   {0x593c4f45bd49937c, 0x247a6949742f5b02, 0xf5f33243f2660c6d},
	"90nm/-1/32":  {0x7ad465e46ebed04f, 0xd196fac07e3f9016, 0x5fd0076c20b4525c},
	"90nm/-1/33":  {0xbe33d884fa5e5faf, 0x730c5f6072ad3157, 0x708a146a4837cdda},
	"90nm/-1/34":  {0x194c36b7fab7748f, 0x23b51c3c9e1182e6, 0x2c94a93064b19063},
	"90nm/-1/64":  {0xe495078efae8188e, 0x45e35e25e37ebe4e, 0xdf297f381d752555},
	"65nm/0/32":   {0x968c75704a1761c2, 0xc5682caae3ce7009, 0x0d25e34f6e4f9ec6},
	"65nm/0/33":   {0xc8bbff6a34206742, 0x25b3c577d7ce0e5b, 0xb5c53190386e8626},
	"65nm/0/34":   {0xdca7f29fe89709c2, 0x925885c40f75409a, 0x567013688d01ae5a},
	"65nm/0/64":   {0xb7872fe64daeabb2, 0x28d7efdbf24a1c1c, 0x035e20135f431527},
	"65nm/1/32":   {0xf797aa5e914e58d2, 0x5343bc88cc1e6da2, 0xd4a1c66198ab2b56},
	"65nm/1/33":   {0xe110e31645c6a072, 0x5866c106013fb376, 0x4746edfacc2acd60},
	"65nm/1/34":   {0x8dec471e70f3aa12, 0x2fb590281ce813c0, 0x21fb4ab62de28497},
	"65nm/1/64":   {0x81f17a0d792bed52, 0x80ff4d4bb96d0a58, 0x044e03cd0f609819},
	"65nm/2/32":   {0xabc665634274abcd, 0x093691337d6bc26d, 0x1b544d4c69f0cbe3},
	"65nm/2/33":   {0xfa24c80905cfcb4d, 0xafd8ab7baa160352, 0x21501781b3449f75},
	"65nm/2/34":   {0x1c93e3419a9582cd, 0xb59f156ece8d7d6b, 0x052530d101765122},
	"65nm/2/64":   {0x0c296e8b7d2162de, 0x7657fe224f309738, 0xff4d0cde4713fdfc},
	"65nm/-1/32":  {0x41379db94ecef8dd, 0x1b5f22282c579257, 0x5fecc00be7f57c18},
	"65nm/-1/33":  {0x5dfedda59ff5f85d, 0x24df384aa609dff4, 0x11d3dce27ab4e2c6},
	"65nm/-1/34":  {0xf687242b0f622a5d, 0xb0f8c809551fa87c, 0x8308511fb3666fb4},
	"65nm/-1/64":  {0xb5d35334195ef310, 0x22602d2a17cc3f68, 0xed5a840bec727e53},
	"45nm/0/32":   {0xd1d91f5f140278e9, 0x34649e4090f3a157, 0xe8c886d3b7711b87},
	"45nm/0/33":   {0x64430f1d30b00d49, 0xd9109f0fa7b98227, 0x1347d597fbd00dc4},
	"45nm/0/34":   {0x2d3370e1ac0376a9, 0xa4f0b40a43f8bd62, 0x59d01ffbe47da9d5},
	"45nm/0/64":   {0xf64f1cfb8c8df919, 0x697d018319f82f00, 0xcb503f1d155cd302},
	"45nm/1/32":   {0x3113d59368beae11, 0xa6a12a074cfdc4dd, 0x4bdf65740c042eb9},
	"45nm/1/33":   {0xb22a6eccc9419911, 0x0ae5e6b32a7951c1, 0x6a4f6a1e534c8fb4},
	"45nm/1/34":   {0x257947bd7aa48191, 0x7b1417246facd09b, 0x3641bd439c4f739a},
	"45nm/1/64":   {0x4ad4cf8a5f696d61, 0xc82457b8755d64c3, 0x825408b49ad631e7},
	"45nm/2/32":   {0xba5db1783d072e5a, 0xcb1b97566d1cd33e, 0x85dab7e4b867c4fd},
	"45nm/2/33":   {0x2b984e82b7b2f2fa, 0xd49604382174da71, 0x2cab7789f5d58e30},
	"45nm/2/34":   {0x69d40169aba70e1a, 0x3ca197a9e52863fa, 0xd48e46f142840cc0},
	"45nm/2/64":   {0x7ea664553c99090a, 0x7e49b8841a77ec9c, 0x366bb38572117762},
	"45nm/-1/32":  {0x88af8fdc528e7324, 0x6a17ab7fd2d02b42, 0x67652f561e5621b5},
	"45nm/-1/33":  {0xe9510b3b5c84d6a4, 0x018e6edfc5a88431, 0x979a9c0503c84126},
	"45nm/-1/34":  {0xdf82579732112b24, 0x095b2b237223a0e7, 0xacd770ce39a8e829},
	"45nm/-1/64":  {0xbbc46a67ba21cb2e, 0x6def9336cd80565d, 0x67299a3739e3503e},
}

func TestTransitionGolden(t *testing.T) {
	streams := goldenWords()
	for _, node := range itrs.Nodes() {
		for _, depth := range []int{0, 1, 2, -1} {
			for _, width := range []int{32, 33, 34, 64} {
				caps, err := capmodel.FromNode(node, width, capmodel.DefaultDecay(node))
				if err != nil {
					t.Fatal(err)
				}
				if depth >= 0 {
					caps = caps.Truncate(depth)
				}
				m, err := New(Config{Caps: caps, Length: 0.01, Vdd: node.Vdd, Crep: 1e-13})
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%d/%d", node.Name, depth, width)
				var got [3]uint64
				for k, sname := range []string{"seq", "address", "random"} {
					got[k] = transitionDigest(t, m, streams[sname])
				}
				if want, ok := transitionGolden[key]; !ok || got != want {
					t.Errorf("%s: digests %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
}
