package main

import (
	"fmt"
	"time"

	"nanobus/internal/capmodel"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/energy"
	"nanobus/internal/itrs"
	"nanobus/internal/repeater"
	"nanobus/internal/thermal"
)

// shadow re-drives the layers under core's step with the same words,
// timing each layer's public call from the benchmark: encoding.EncodeWords,
// energy.Accumulator.StepBatch (MultiAccumulator.StepBus for several
// buses) and thermal Network/Grid Advance. It
// mirrors core's interval bookkeeping (chunks never cross an interval
// boundary, one advance per closed interval) so each layer sees the
// call pattern core gives it. Its figures are layer costs, not results.
type shadow struct {
	buses    int
	width    int
	interval uint64
	cycleS   float64 // one bus cycle in seconds
	length   float64

	encs  []encoding.Encoder
	acc   *energy.Accumulator      // buses == 1
	multi *energy.MultiAccumulator // buses > 1
	net   *thermal.Network         // buses == 1
	grid  *thermal.Grid            // buses > 1

	inInterval uint64
	memo0      energy.MemoStats // memo counters at the last reset
	col        []uint32
	encBuf     []uint64
	lines      []energy.LineEnergy
	power      []float64

	// Layer busy time in nanoseconds and work counts.
	encNs, energyNs, thermalNs int64
	words, advances            int64
}

// shadowChunk bounds one encode/accumulate call, as core's batch chunk.
const shadowChunk = 4096

func newShadow(node itrs.Node, scheme string, interval uint64, buses int) (*shadow, error) {
	enc, err := encoding.New(scheme)
	if err != nil {
		return nil, err
	}
	width := enc.Width()
	caps, err := capmodel.FromNode(node, width, capmodel.DefaultDecay(node))
	if err != nil {
		return nil, err
	}
	plan, err := repeater.InsertDefault(node, core.DefaultLength)
	if err != nil {
		return nil, err
	}
	model, err := energy.New(energy.Config{Caps: caps, Length: core.DefaultLength, Vdd: node.Vdd, Crep: plan.Crep})
	if err != nil {
		return nil, err
	}
	s := &shadow{
		buses:    buses,
		width:    width,
		interval: interval,
		cycleS:   node.CyclePeriod(),
		length:   core.DefaultLength,
		col:      make([]uint32, shadowChunk),
		encBuf:   make([]uint64, shadowChunk),
		lines:    make([]energy.LineEnergy, width),
		power:    make([]float64, buses*width),
	}
	for k := 0; k < buses; k++ {
		e, err := encoding.New(scheme)
		if err != nil {
			return nil, err
		}
		s.encs = append(s.encs, e)
	}
	if buses == 1 {
		s.acc = energy.NewAccumulator(model)
		err = s.acc.EnableMemo(0)
	} else if s.multi, err = energy.NewMultiAccumulator(model, buses); err == nil {
		err = s.multi.EnableMemo(0)
	}
	if err != nil {
		return nil, err
	}
	if buses == 1 {
		s.net, err = thermal.NewFromNode(node, width, thermal.NodeOptions{})
	} else {
		s.grid, err = thermal.NewGridFromNode(node, width, buses, thermal.GridNodeOptions{})
	}
	if err != nil {
		return nil, fmt.Errorf("shadow thermal: %w", err)
	}
	s.memo0 = s.memoTotal()
	return s, nil
}

// reset returns the shadow to an undriven bus with zeroed counters,
// keeping each memo warm the way a recycled simulator keeps its memo.
func (s *shadow) reset() {
	for _, e := range s.encs {
		e.Reset()
	}
	if s.acc != nil {
		s.acc.ResetAll()
	} else {
		s.multi.ResetAll()
	}
	s.encNs, s.energyNs, s.thermalNs, s.words, s.advances = 0, 0, 0, 0, 0
	s.memo0 = s.memoTotal()
	if s.net != nil {
		s.net.Reset()
	} else {
		s.grid.Reset()
	}
	s.inInterval = 0
}

// step drives words (cycle-major over the buses) through the layers.
func (s *shadow) step(words []uint32) error {
	k := s.buses
	for len(words) > 0 {
		rows := uint64(len(words) / k)
		if left := s.interval - s.inInterval; rows > left {
			rows = left
		}
		if rows > shadowChunk {
			rows = shadowChunk
		}
		n := int(rows)
		for b := 0; b < k; b++ {
			src := words[:n*k]
			if k > 1 {
				for r := 0; r < n; r++ {
					s.col[r] = words[r*k+b]
				}
				src = s.col[:n]
			}
			t0 := time.Now()
			encoding.EncodeWords(s.encs[b], s.encBuf[:n], src)
			t1 := time.Now()
			if s.acc != nil {
				s.acc.StepBatch(s.encBuf[:n])
			} else {
				s.multi.StepBus(b, s.encBuf[:n])
			}
			t2 := time.Now()
			s.encNs += t1.Sub(t0).Nanoseconds()
			s.energyNs += t2.Sub(t1).Nanoseconds()
		}
		if s.multi != nil {
			s.multi.AddCycles(rows)
		}
		s.words += int64(n * k)
		words = words[n*k:]
		if err := s.advance(rows); err != nil {
			return err
		}
	}
	return nil
}

// idle holds the bus for n cycles.
func (s *shadow) idle(n uint64) error {
	for n > 0 {
		m := n
		if left := s.interval - s.inInterval; m > left {
			m = left
		}
		if s.acc != nil {
			s.acc.IdleN(m)
		} else {
			s.multi.IdleN(m)
		}
		n -= m
		if err := s.advance(m); err != nil {
			return err
		}
	}
	return nil
}

// advance counts cycles into the interval and closes it when full.
func (s *shadow) advance(cycles uint64) error {
	s.inInterval += cycles
	if s.inInterval < s.interval {
		return nil
	}
	return s.flush()
}

// flush closes the open interval: line energies to power, one thermal
// advance. Partial intervals are flushed by finish.
func (s *shadow) flush() error {
	if s.inInterval == 0 {
		return nil
	}
	dt := float64(s.inInterval) * s.cycleS
	if s.acc != nil {
		s.acc.Lines(s.lines)
		s.setPower(0, dt)
		s.acc.Reset()
	} else {
		t0 := time.Now()
		s.multi.Drain()
		s.energyNs += time.Since(t0).Nanoseconds()
		for b := 0; b < s.buses; b++ {
			s.multi.BusLines(b, s.lines)
			s.setPower(b, dt)
		}
		s.multi.Reset()
	}
	t0 := time.Now()
	var err error
	if s.net != nil {
		err = s.net.Advance(dt, s.power)
	} else {
		err = s.grid.Advance(dt, s.power)
	}
	s.thermalNs += time.Since(t0).Nanoseconds()
	s.advances++
	s.inInterval = 0
	return err
}

// memo returns the memo hits and misses since the last reset.
func (s *shadow) memo() energy.MemoStats {
	m := s.memoTotal()
	m.Hits -= s.memo0.Hits
	m.Misses -= s.memo0.Misses
	return m
}

func (s *shadow) memoTotal() energy.MemoStats {
	if s.acc != nil {
		return s.acc.Memo().Stats()
	}
	return s.multi.Memo().Stats()
}

// setPower converts bus b's interval line energies into W/m.
func (s *shadow) setPower(b int, dt float64) {
	for i, le := range s.lines {
		s.power[b*s.width+i] = le.Total() / dt / s.length
	}
}
