// Package energy implements the paper's per-line bus energy dissipation
// model (Sec. 3). For every bus cycle it computes, for each wire i, the
// energy dissipated by
//
//   - the self transition: Eself = 0.5*(Cline + Crep)*Vi^2 (Sec. 3.1), where
//     Vi = Vfinal - Vinitial is in {-Vdd, 0, +Vdd}, and
//   - coupling transitions against every other wire j:
//     Ec(i,j) = 0.5*c(i,j)*(Vi^2 - Vi*Vj) (Sec. 3.2), which yields the
//     Miller-doubled energy c*Vdd^2 per line on a toggle (opposite
//     transitions), 0.5*c*Vdd^2 on a charge/discharge against a quiet
//     line, and 0 between two quiet or two same-direction lines.
//
// Coupling is accounted separately for adjacent (|i-j| == 1) and
// non-adjacent (|i-j| > 1) pairs so the harness can present the paper's
// "Self", "NN" (self + adjacent) and "All" (self + all pairs) variants from
// one simulation pass.
package energy

import (
	"fmt"
	"math/bits"

	"nanobus/internal/capmodel"
)

// Model holds the absolute (length-scaled) electrical parameters of a bus.
type Model struct {
	n    int
	vdd  float64
	vdd2 float64
	// selfCap[i] is (cline*L + Crep) in farads.
	selfCap []float64
	// coup[i][j] is the absolute coupling capacitance in farads.
	coup [][]float64
	// band[i] is wire i's precomputed share of the transition kernel.
	band []wireBand
}

// wireBand is one wire's view of the coupling matrix, precomputed so that
// a transition touches only the non-zero couplings between switching
// lines. That is exact for any matrix and cheap for the ones the models
// build, which are banded (capmodel.DecayModel is zero beyond a few
// wires): a switching line sees a handful of couplings, not a whole row.
type wireBand struct {
	// self is the line's self energy per switch, 0.5*Vdd^2*selfCap[i].
	self float64
	// adj is the adjacent coupling with every other line quiet,
	// coup[i][i-1] + coup[i][i+1], and non the non-adjacent remainder of
	// the row, rowSum - adj.
	adj, non float64
	// near and far mark the wires j with a non-zero coupling to i: near
	// the adjacent ones (|i-j| == 1), far the rest (|i-j| > 1).
	near, far uint64
}

// Config assembles a Model.
type Config struct {
	// Caps is the per-unit-length capacitance matrix (F/m).
	Caps *capmodel.Matrix
	// Length is the bus length in meters.
	Length float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// Crep is the total repeater capacitance added to each line in farads
	// (absolute). Zero if the bus has no repeaters.
	Crep float64
}

// New builds an energy model from the configuration.
func New(cfg Config) (*Model, error) {
	if cfg.Caps == nil {
		return nil, fmt.Errorf("energy: nil capacitance matrix")
	}
	n := cfg.Caps.N()
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("energy: bus width %d out of range [1,64]", n)
	}
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("energy: non-positive length %g", cfg.Length)
	}
	if cfg.Vdd <= 0 {
		return nil, fmt.Errorf("energy: non-positive Vdd %g", cfg.Vdd)
	}
	if cfg.Crep < 0 {
		return nil, fmt.Errorf("energy: negative Crep %g", cfg.Crep)
	}
	m := &Model{
		n:       n,
		vdd:     cfg.Vdd,
		vdd2:    cfg.Vdd * cfg.Vdd,
		selfCap: make([]float64, n),
		coup:    make([][]float64, n),
		band:    make([]wireBand, n),
	}
	half := 0.5 * m.vdd2
	for i := 0; i < n; i++ {
		m.selfCap[i] = cfg.Caps.Self(i)*cfg.Length + cfg.Crep
		m.coup[i] = make([]float64, n)
		rowSum := 0.0
		for j := 0; j < n; j++ {
			c := cfg.Caps.Coupling(i, j) * cfg.Length
			m.coup[i][j] = c
			rowSum += c
		}
		b := &m.band[i]
		b.self = half * m.selfCap[i]
		row := m.coup[i]
		adj := 0.0
		if i > 0 {
			adj += row[i-1]
		}
		if i < n-1 {
			adj += row[i+1]
		}
		b.adj, b.non = adj, rowSum-adj
		for j, c := range row {
			if c == 0 { //nanolint:ignore floateq sparsity: an exactly zero coupling capacitance contributes nothing, so it stays out of the band
				continue
			}
			if j == i-1 || j == i+1 {
				b.near |= 1 << uint(j)
			} else if j != i {
				b.far |= 1 << uint(j)
			}
		}
	}
	return m, nil
}

// N returns the bus width in wires.
func (m *Model) N() int { return m.n }

// Vdd returns the supply voltage.
func (m *Model) Vdd() float64 { return m.vdd }

// SelfCap returns wire i's absolute self capacitance (including repeaters)
// in farads.
func (m *Model) SelfCap(i int) float64 { return m.selfCap[i] }

// CouplingCap returns the absolute coupling capacitance between wires i and
// j in farads.
func (m *Model) CouplingCap(i, j int) float64 { return m.coup[i][j] }

// LineEnergy is one wire's energy for a transition or an accumulation
// window, split by component (joules).
type LineEnergy struct {
	// Self is the self-capacitance energy.
	Self float64
	// CoupAdj is coupling energy against adjacent neighbours (|i-j|==1).
	CoupAdj float64
	// CoupNonAdj is coupling energy against non-adjacent neighbours.
	CoupNonAdj float64
}

// Total returns self + all coupling energy.
func (e LineEnergy) Total() float64 { return e.Self + e.CoupAdj + e.CoupNonAdj }

// TotalNN returns the "NN" model variant: self + adjacent coupling only.
func (e LineEnergy) TotalNN() float64 { return e.Self + e.CoupAdj }

func (e *LineEnergy) add(o LineEnergy) {
	e.Self += o.Self
	e.CoupAdj += o.CoupAdj
	e.CoupNonAdj += o.CoupNonAdj
}

// Transition computes the per-line energies for the bus transition
// prev -> cur. Bit i of the words is wire i's logic value. out must have
// length N and is fully overwritten; the summed energy over all lines is
// returned. The cost is O(s*b) where s is the number of switching lines
// and b the number of non-zero couplings per row (the coupling band).
func (m *Model) Transition(prev, cur uint64, out []LineEnergy) (LineEnergy, error) {
	if len(out) != m.n {
		return LineEnergy{}, fmt.Errorf("energy: out length %d, want %d", len(out), m.n)
	}
	return m.transition(prev, cur, out), nil
}

// transition is the no-check kernel behind Transition, for callers whose
// scratch slice is sized to the model by construction (the Accumulator).
func (m *Model) transition(prev, cur uint64, out []LineEnergy) LineEnergy {
	for i := range out {
		out[i] = LineEnergy{}
	}
	diff := (prev ^ cur) & mask(m.n)
	if diff == 0 {
		return LineEnergy{}
	}
	var idx [64]int
	var les [64]LineEnergy
	s := bits.OnesCount64(diff)
	total := m.transitionSparse(diff, cur&diff, idx[:s], les[:s])
	for a := 0; a < s; a++ {
		out[idx[a]] = les[a]
	}
	return total
}

// transitionSparse computes the energies of the s switching lines of a
// transition. The transition is described by its memoizable key: diff is
// the switching mask (already width-masked, non-zero) and rising = cur&diff
// is the subset of switching lines that rise — the per-line energies depend
// on nothing else, because quiet lines contribute their coupling
// capacitance independent of their logic value (Sec. 3.2). idx and les must
// have length s = popcount(diff); idx receives the switching wire indices
// in ascending order, les their energies. The bus-wide total is returned.
func (m *Model) transitionSparse(diff, rising uint64, idx []int, les []LineEnergy) LineEnergy {
	// Coupling: 0.5*Vdd^2 * sum_j c_ij*(1 - vi*vj), with vi = Vi/Vdd in
	// {-1, +1} for switching lines and vj = 0 for quiet ones. Each
	// switching line starts from the all-quiet sum (every j contributes
	// c_ij, pre-split by adjacency) and then folds in -c_ij*vi*vj for
	// each switching j in its band, in ascending j: +c_ij against an
	// opposite transition (the Miller case), -c_ij alongside a
	// same-direction one.
	var total LineEnergy
	half := 0.5 * m.vdd2
	a := 0
	for d := diff; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		b := &m.band[i]
		row := m.coup[i]
		// Bit j of opp is set when line j moves against line i.
		opp := rising ^ -(rising >> uint(i) & 1)
		adj := b.adj
		for o := diff & b.near; o != 0; o &= o - 1 {
			j := bits.TrailingZeros64(o)
			adj += pairSign[opp>>uint(j)&1] * row[j]
		}
		non := b.non
		for o := diff & b.far; o != 0; o &= o - 1 {
			j := bits.TrailingZeros64(o)
			non += pairSign[opp>>uint(j)&1] * row[j]
		}
		le := LineEnergy{Self: b.self, CoupAdj: half * adj, CoupNonAdj: half * non}
		idx[a] = i
		les[a] = le
		total.add(le)
		a++
	}
	return total
}

// pairSign is -vi*vj for a pair of switching lines, indexed by whether
// they move in opposite directions.
var pairSign = [2]float64{-1, 1}

// Accumulator drives a Model over a word stream, accumulating per-line
// energies. It tracks the previously transmitted word, so callers just push
// the new word each cycle (or call Idle for cycles in which the bus holds
// its value, which dissipate nothing — the paper's idle assumption).
type Accumulator struct {
	model *Model
	prev  uint64
	// first marks that no word has been transmitted yet; the first word
	// establishes the initial state without dissipating (the paper's
	// traces likewise start from the first transmitted address).
	first bool

	cycles     uint64
	idleCycles uint64

	lines []LineEnergy
	total LineEnergy
	step  []LineEnergy
	// memo, when non-nil, caches per-transition results and switches Step
	// to the sparse accumulate path (identical numerics, see Memo).
	memo *Memo
}

// NewAccumulator returns an accumulator over the model, starting from an
// undriven bus (the first pushed word sets the state free of charge).
func NewAccumulator(m *Model) *Accumulator {
	return &Accumulator{
		model: m,
		first: true,
		lines: make([]LineEnergy, m.n),
		step:  make([]LineEnergy, m.n),
	}
}

// Model returns the underlying energy model.
func (a *Accumulator) Model() *Model { return a.model }

// EnableMemo attaches a fresh transition memo of 2^sizeLog2 entries
// (0 = DefaultMemoSizeLog2) to the accumulator. Memoized stepping is
// bit-identical to the direct kernel; only the cost changes.
func (a *Accumulator) EnableMemo(sizeLog2 int) error {
	m, err := NewMemo(a.model, sizeLog2)
	if err != nil {
		return err
	}
	a.memo = m
	return nil
}

// Memo returns the attached transition memo, or nil when memoization is
// disabled.
func (a *Accumulator) Memo() *Memo { return a.memo }

// Step transmits word on the bus for one cycle and accrues the transition
// energy against the previously transmitted word.
func (a *Accumulator) Step(word uint64) {
	a.cycles++
	if a.first {
		a.first = false
		a.prev = word & mask(a.model.n)
		return
	}
	word &= mask(a.model.n)
	if word == a.prev {
		return
	}
	if a.memo != nil {
		diff := a.prev ^ word
		e := a.memo.lookup(diff, word&diff)
		k := 0
		for d := diff; d != 0; d &= d - 1 {
			a.lines[bits.TrailingZeros64(d)].add(e.lines[k])
			k++
		}
		a.total.add(e.total)
		a.prev = word
		return
	}
	tot := a.model.transition(a.prev, word, a.step)
	for i := range a.step {
		a.lines[i].add(a.step[i])
	}
	a.total.add(tot)
	a.prev = word
}

// Idle advances one cycle with the bus holding its previous value; no
// energy is dissipated.
func (a *Accumulator) Idle() {
	a.cycles++
	a.idleCycles++
}

// Cycles returns the number of bus cycles stepped (including idles).
func (a *Accumulator) Cycles() uint64 { return a.cycles }

// IdleCycles returns how many cycles were idle.
func (a *Accumulator) IdleCycles() uint64 { return a.idleCycles }

// Line returns the accumulated energy of wire i.
func (a *Accumulator) Line(i int) LineEnergy { return a.lines[i] }

// Lines copies the accumulated per-line energies into dst (length N).
func (a *Accumulator) Lines(dst []LineEnergy) {
	copy(dst, a.lines)
}

// Total returns the accumulated bus-wide energy.
func (a *Accumulator) Total() LineEnergy { return a.total }

// Last returns the word currently held on the bus.
func (a *Accumulator) Last() uint64 { return a.prev }

// Reset zeroes the accumulated energies and cycle counts but keeps the bus
// state (the held word), so interval-based callers can difference cheaply.
func (a *Accumulator) Reset() {
	for i := range a.lines {
		a.lines[i] = LineEnergy{}
	}
	a.total = LineEnergy{}
	a.cycles = 0
	a.idleCycles = 0
}

// ResetAll returns the accumulator to its initial undriven state: energies,
// cycle counts, and the held word are all cleared. The memo cache and its
// counters are deliberately kept — a sweep driver replaying new traffic
// through the same model wants the cache warm.
func (a *Accumulator) ResetAll() {
	a.Reset()
	a.first = true
	a.prev = 0
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}
