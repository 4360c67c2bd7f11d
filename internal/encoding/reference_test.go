package encoding

import (
	"math/rand"
	"testing"
)

// couplingCostRef is the bit-serial reference for couplingCost: it walks
// the bus one adjacent pair at a time and sums (vi - vj)^2 over the
// normalised transition directions.
func couplingCostRef(prev, cur uint64, width int) int {
	cost := 0
	for i := 0; i < width-1; i++ {
		d := dir(prev, cur, i) - dir(prev, cur, i+1)
		cost += d * d
	}
	return cost
}

func TestCouplingCostMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20000; trial++ {
		prev, cur := rng.Uint64(), rng.Uint64()
		if trial%3 == 0 {
			cur = prev ^ 1<<uint(rng.Intn(64)) // sparse transitions too
		}
		width := 1 + rng.Intn(64)
		if got, want := couplingCost(prev, cur, width), couplingCostRef(prev, cur, width); got != want {
			t.Fatalf("couplingCost(%#x, %#x, %d) = %d, reference %d", prev, cur, width, got, want)
		}
	}
}

// FuzzCouplingCost checks the word-parallel coupling cost against the
// bit-serial reference for arbitrary bus words and widths 1..64, bits
// above the width included (they must not count).
func FuzzCouplingCost(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(1))
	f.Add(uint64(0b01), uint64(0b10), uint8(2))
	f.Add(uint64(0x5555_5555_5555_5555), ^uint64(0x5555_5555_5555_5555), uint8(64))
	f.Add(uint64(0xDEAD_BEEF), uint64(0x1234_5678_9ABC_DEF0), uint8(33))
	f.Add(uint64(1)<<63, uint64(1)<<62, uint8(63))
	f.Fuzz(func(t *testing.T, prev, cur uint64, w uint8) {
		width := 1 + int(w)%64
		if got, want := couplingCost(prev, cur, width), couplingCostRef(prev, cur, width); got != want {
			t.Fatalf("couplingCost(%#x, %#x, %d) = %d, reference %d", prev, cur, width, got, want)
		}
	})
}
