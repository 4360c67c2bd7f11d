package main

// addressGen is loadgen's "address" pattern: mostly sequential word
// addresses with 10% far jumps and 10% holds, the regime an address bus
// carries. The state is an LCG, so a seed fixes the whole stream.
type addressGen struct{ x, addr uint32 }

func newAddressGen(seed uint32) *addressGen {
	return &addressGen{x: seed, addr: 0x4000_1000}
}

func (g *addressGen) fill(words []uint32) {
	for i := range words {
		g.x = g.x*1664525 + 1013904223
		switch g.x % 10 {
		case 0:
			g.addr = g.x * 2654435761 // far jump
		case 1:
			// hold
		default:
			g.addr += 4
		}
		words[i] = g.addr
	}
}

// seqRows fills words cycle-major for len(base) buses with sequential
// word addresses starting after row firstRow, each bus counting up from
// its own seed-derived base: the memo-friendly traffic of the durable
// workload. Any batch can be regenerated from its row index alone.
func seqRows(words []uint32, base []uint32, firstRow int) {
	buses := len(base)
	for i := range words {
		words[i] = base[i%buses] + 4*uint32(firstRow+i/buses+1)
	}
}

// splitmix returns a well-mixed 64-bit value for x, used to derive
// per-session seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
