package energy

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"nanobus/internal/capmodel"
	"nanobus/internal/extract"
	"nanobus/internal/linalg"
)

// transitionSparseRef is the pairwise reference for transitionSparse:
// every switching line starts from the all-quiet coupling sum, and each
// switching pair's -c*vi*vj correction is applied once, to both lines,
// walking all O(s^2) pairs. Same contract as transitionSparse.
func transitionSparseRef(m *Model, diff, rising uint64, idx []int, les []LineEnergy) LineEnergy {
	var dir [64]float64
	s := 0
	for d := diff; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		idx[s] = i
		if rising&(1<<uint(i)) != 0 {
			dir[s] = 1
		} else {
			dir[s] = -1
		}
		s++
	}
	var coupAdj, coupNon [64]float64
	for a := 0; a < s; a++ {
		i := idx[a]
		row := m.coup[i]
		rowSum := 0.0
		for _, c := range row {
			rowSum += c
		}
		adj := 0.0
		if i > 0 {
			adj += row[i-1]
		}
		if i < m.n-1 {
			adj += row[i+1]
		}
		coupAdj[a] = adj
		coupNon[a] = rowSum - adj
	}
	for a := 0; a < s; a++ {
		i := idx[a]
		row := m.coup[i]
		va := dir[a]
		for b := a + 1; b < s; b++ {
			j := idx[b]
			c := row[j]
			if c == 0 { //nanolint:ignore floateq the reference mirrors the kernel's sparsity skip
				continue
			}
			delta := -c * va * dir[b]
			if j == i-1 || j == i+1 {
				coupAdj[a] += delta
				coupAdj[b] += delta
			} else {
				coupNon[a] += delta
				coupNon[b] += delta
			}
		}
	}
	var total LineEnergy
	half := 0.5 * m.vdd2
	for a := 0; a < s; a++ {
		le := LineEnergy{
			Self:       half * m.selfCap[idx[a]],
			CoupAdj:    half * coupAdj[a],
			CoupNonAdj: half * coupNon[a],
		}
		les[a] = le
		total.add(le)
	}
	return total
}

// sameBits reports whether two LineEnergy values are Float64bits-equal.
func sameBits(a, b LineEnergy) bool {
	return math.Float64bits(a.Self) == math.Float64bits(b.Self) &&
		math.Float64bits(a.CoupAdj) == math.Float64bits(b.CoupAdj) &&
		math.Float64bits(a.CoupNonAdj) == math.Float64bits(b.CoupNonAdj)
}

// checkKernel compares transitionSparse with the pairwise reference on
// one (diff, rising) key, Float64bits-exact on every line and the total.
func checkKernel(t *testing.T, m *Model, diff, rising uint64) {
	t.Helper()
	diff &= mask(m.n)
	rising &= diff
	if diff == 0 {
		return
	}
	s := bits.OnesCount64(diff)
	var idx, idxRef [64]int
	var les, lesRef [64]LineEnergy
	total := m.transitionSparse(diff, rising, idx[:s], les[:s])
	want := transitionSparseRef(m, diff, rising, idxRef[:s], lesRef[:s])
	for a := 0; a < s; a++ {
		if idx[a] != idxRef[a] || !sameBits(les[a], lesRef[a]) {
			t.Fatalf("n=%d diff=%#x rising=%#x: line %d got %+v, reference line %d %+v",
				m.n, diff, rising, idx[a], les[a], idxRef[a], lesRef[a])
		}
	}
	if !sameBits(total, want) {
		t.Fatalf("n=%d diff=%#x rising=%#x: total %+v, reference %+v", m.n, diff, rising, total, want)
	}
}

// randomBandModel builds an n-wire model over a random non-negative
// symmetric coupling matrix that is zero beyond the given band, with
// some exact zeros inside it. Length 1 keeps the couplings exactly as
// drawn.
func randomBandModel(t *testing.T, rng *rand.Rand, n, band int) *Model {
	t.Helper()
	mw, err := linalg.NewMatrix(n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mw.Set(i, i, 1e-10*(1+rng.Float64()))
		for j := i + 1; j < n && j-i <= band; j++ {
			c := 0.0
			if rng.Intn(5) != 0 {
				c = 1e-11 * rng.Float64() / float64(j-i)
			}
			mw.Set(i, j, -c)
			mw.Set(j, i, -c)
		}
	}
	caps := capmodel.FromExtraction(&extract.Result{Names: make([]string, n), Maxwell: mw})
	m, err := New(Config{Caps: caps, Length: 1, Vdd: 0.5 + rng.Float64(), Crep: 1e-13 * rng.Float64()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTransitionKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		m := randomBandModel(t, rng, n, rng.Intn(n+1))
		for k := 0; k < 50; k++ {
			checkKernel(t, m, rng.Uint64(), rng.Uint64())
		}
	}
}

// FuzzTransitionKernel checks the banded kernel against the pairwise
// reference over random widths 1..64, random coupling bands from
// self-only to dense (exact-zero entries included) and random
// switching/rising masks.
func FuzzTransitionKernel(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(6), uint64(0xFFFF_FFFF), uint64(0x5555_5555))
	f.Add(int64(2), uint8(64), uint8(64), ^uint64(0), uint64(0xF0F0_F0F0_F0F0_F0F0))
	f.Add(int64(3), uint8(1), uint8(0), uint64(1), uint64(0))
	f.Add(int64(4), uint8(33), uint8(1), uint64(0x1_8000_0001), uint64(0x1_0000_0000))
	f.Fuzz(func(t *testing.T, seed int64, w, band uint8, diff, rising uint64) {
		n := 1 + int(w)%64
		rng := rand.New(rand.NewSource(seed))
		m := randomBandModel(t, rng, n, int(band)%(n+1))
		checkKernel(t, m, diff, rising)
	})
}
