package main

import (
	"slices"
	"testing"
)

func TestAddressGenIsSeeded(t *testing.T) {
	gen := func(seed uint32) []uint32 {
		w := make([]uint32, 4096)
		newAddressGen(seed).fill(w)
		return w
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different words")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same words")
	}
	// The pattern is mostly sequential: about 8 in 10 steps are +4.
	seq := 0
	for i := 1; i < len(a); i++ {
		if a[i] == a[i-1]+4 {
			seq++
		}
	}
	if frac := float64(seq) / float64(len(a)-1); frac < 0.7 || frac > 0.9 {
		t.Fatalf("sequential share %.2f, want about 0.8", frac)
	}
}

func TestSeqRowsIsSeeded(t *testing.T) {
	base := func(seed uint64) []uint32 {
		return []uint32{uint32(splitmix(seed)), uint32(splitmix(seed + 1))}
	}
	gen := func(seed uint64, firstRow, rows int) []uint32 {
		w := make([]uint32, 2*rows)
		seqRows(w, base(seed), firstRow)
		return w
	}
	a, b, c := gen(1, 0, 32), gen(1, 0, 32), gen(2, 0, 32)
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatal("seqRows is not a function of its seed alone")
	}
	for i := 2; i < len(a); i++ {
		if a[i] != a[i-2]+4 {
			t.Fatalf("bus %d word %d = %#x after %#x, want +4", i%2, i/2, a[i], a[i-2])
		}
	}
	// A later batch regenerates from its row index alone.
	if tail := gen(1, 16, 16); !slices.Equal(tail, a[32:]) {
		t.Fatal("rows 16..31 regenerated differently from the whole stream")
	}
}
