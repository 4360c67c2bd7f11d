package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// The replay workload is the paper's Fig. 3 sweep at one node for one
// benchmark: its IA and DA tapes over expt.Fig3's default window, each
// through a fresh simulator per encoding, so the memo starts cold as it
// does once per configuration in every sweep. mcf is the benchmark whose
// DA traffic overflows the memo, so the energy miss path runs beside the
// OEBI/CBI encoders; one benchmark keeps a rep near four seconds.
var (
	replayBenchmarks = []string{"mcf"}
	replaySchemes    = encoding.PaperSchemes()
)

const (
	replayNode   = "45nm"
	replayWindow = 2_000_000 // cycles per tape: expt.Fig3's default window
	// The seed picks one of replayOffsets window starts past each
	// benchmark's warm-up, replayOffsetStep cycles apart.
	replayOffsets    = 8
	replayOffsetStep = 1024
	// replayChecked cells per run are compared with the memo-less kernel.
	replayChecked = 3
	opWords       = 4096 // words in one op at most
)

// busTape is one bus's cycle sequence as alternating word runs and idle
// stretches, so the benchmark can time each StepBatch call itself.
type busTape struct {
	words []uint32
	runs  []tapeRun
}

type tapeRun struct {
	words int
	idle  uint64
}

func compileBus(window []trace.Cycle, kind string) *busTape {
	t := &busTape{}
	var r tapeRun
	for _, c := range window {
		valid, addr := c.IValid, c.IAddr
		if kind == "da" {
			valid, addr = c.DValid, c.DAddr
		}
		if !valid {
			r.idle++
			continue
		}
		if r.idle > 0 {
			t.runs = append(t.runs, r)
			r = tapeRun{}
		}
		t.words = append(t.words, addr)
		r.words++
	}
	if r.words > 0 || r.idle > 0 {
		t.runs = append(t.runs, r)
	}
	return t
}

type replayCell struct {
	name    string
	scheme  string
	tape    *busTape
	libTape *core.Tape
}

type replay struct {
	node  itrs.Node
	seed  uint64
	cells []replayCell
	runs  [][]figures // per rep, per cell
	// lat is the op latency buffer, reused so that a rep's million-odd
	// ops do not each rep allocate tens of MiB the collector then chases.
	lat []float64
	// Core step time per cell in the last traced rep (its step calls run
	// one after another, never overlapping), and the cells' replay time.
	coreNs   []int64
	tracedNs int64
}

func setupReplay(seed uint64, l *layerTotals) (runner, error) {
	node, err := itrs.Resolve(replayNode)
	if err != nil {
		return nil, err
	}
	w := &replay{node: node, seed: seed}
	offset := (seed % replayOffsets) * replayOffsetStep
	t0 := time.Now()
	window := make([]trace.Cycle, 0, replayWindow)
	for _, name := range replayBenchmarks {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		src, err := b.NewWarmSource(b.WarmupCycles + offset)
		if err != nil {
			return nil, err
		}
		window = window[:0]
		for len(window) < replayWindow {
			c, ok := src.Next()
			if !ok {
				return nil, fmt.Errorf("%s trace ended after %d cycles", name, len(window))
			}
			window = append(window, c)
		}
		// The simulated CPU's memory is garbage once captured; collect it
		// here so peak RSS does not depend on when the GC would have run.
		runtime.GC()
		for _, bus := range []string{"da", "ia"} {
			lib, err := core.CompileTape(trace.NewSliceSource(window), bus, replayWindow)
			if err != nil {
				return nil, err
			}
			tape := compileBus(window, bus)
			if lib.Words() != uint64(len(tape.words)) {
				return nil, fmt.Errorf("%s/%s: tape has %d words, library tape %d", name, bus, len(tape.words), lib.Words())
			}
			for _, scheme := range replaySchemes {
				w.cells = append(w.cells, replayCell{
					name: name + "/" + bus + "/" + scheme, scheme: scheme, tape: tape, libTape: lib,
				})
			}
		}
	}
	l.captureS = append(l.captureS, time.Since(t0).Seconds())

	return w, nil
}

func (w *replay) newSim(scheme string, memoLog2 int) (*core.Simulator, error) {
	enc, err := encoding.New(scheme)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Node: w.node, Encoder: enc, CouplingDepth: -1, MemoSizeLog2: memoLog2, DropSamples: true,
	})
}

// simFigures is what the checks compare for a scalar simulator.
func simFigures(sim *core.Simulator) figures {
	var f figures
	tot := sim.TotalEnergy()
	f.add("self_j", tot.Self)
	f.add("coup_adj_j", tot.CoupAdj)
	f.add("coup_non_adj_j", tot.CoupNonAdj)
	f.add("cycles", float64(sim.Cycles()))
	for i, t := range sim.Temps() {
		f.add(fmt.Sprintf("temp_k[%d]", i), t)
	}
	return f
}

func (w *replay) rep(traced bool) (repStats, error) {
	ctx := context.Background()
	st := repStats{lat: w.lat[:0]}
	defer func() { w.lat = st.lat }()
	out := make([]figures, len(w.cells))
	if traced {
		w.coreNs = make([]int64, len(w.cells))
		w.tracedNs = 0
	}
	for ci, cell := range w.cells {
		// A fresh simulator per cell: the memo starts cold.
		sim, err := w.newSim(cell.scheme, 0)
		if err != nil {
			return st, err
		}
		var coreNs int64
		c0 := cpuTime()
		t0 := time.Now()
		off := 0
		for _, r := range cell.tape.runs {
			for done := 0; done < r.words; {
				n := min(opWords, r.words-done)
				chunk := cell.tape.words[off+done : off+done+n]
				ts := time.Now()
				_, err := sim.StepBatch(ctx, chunk)
				te := time.Now()
				st.lat = append(st.lat, durMs(te.Sub(ts)))
				if err != nil {
					st.failed++
					return st, fmt.Errorf("%s: %w", cell.name, err)
				}
				coreNs += te.Sub(ts).Nanoseconds()
				done += n
			}
			off += r.words
			if r.idle > 0 {
				ts := time.Now()
				if _, err := sim.StepIdleBatch(ctx, r.idle); err != nil {
					return st, fmt.Errorf("%s: %w", cell.name, err)
				}
				if traced {
					coreNs += time.Since(ts).Nanoseconds()
				}
			}
		}
		if err := sim.Finish(); err != nil {
			return st, fmt.Errorf("%s: %w", cell.name, err)
		}
		wall := time.Since(t0)
		st.wall += wall
		st.cpu += cpuTime() - c0
		st.words += int64(len(cell.tape.words))
		out[ci] = simFigures(sim)
		if traced {
			w.coreNs[ci] = coreNs
			w.tracedNs += wall.Nanoseconds()
		}
	}
	w.runs = append(w.runs, out)
	return st, nil
}

// redrive replays the last traced rep's tapes through the layers under
// core, each cell on a cold memo as the real rep had.
func (w *replay) redrive(l *layerTotals) error {
	for ci, cell := range w.cells {
		sh, err := newShadow(w.node, cell.scheme, core.DefaultIntervalCycles, 1)
		if err != nil {
			return err
		}
		off := 0
		for _, r := range cell.tape.runs {
			if err := sh.step(cell.tape.words[off : off+r.words]); err != nil {
				return err
			}
			off += r.words
			if err := sh.idle(r.idle); err != nil {
				return err
			}
		}
		if err := sh.flush(); err != nil {
			return err
		}
		l.addShadow(sh)
		l.coreNs += w.coreNs[ci]
		l.coreWords += int64(len(cell.tape.words))
		l.explainedNs += w.coreNs[ci]
	}
	l.laneNs += w.tracedNs
	return nil
}

// verify compares a seed-chosen sample of cells with the memo-disabled
// direct kernel replaying the library's own tape, and every cell of every
// rep with rep 0. The references are computed here, after the measured
// part: the memo-less kernel takes seconds per 2M-cycle cell, which would
// otherwise dominate setup_s.
func (w *replay) verify() (int, error) {
	failed := 0
	var first error
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	refs := map[int]figures{}
	for x := w.seed; len(refs) < min(replayChecked, len(w.cells)); {
		x = splitmix(x)
		ci := int(x % uint64(len(w.cells)))
		if _, dup := refs[ci]; dup {
			continue
		}
		sim, err := w.newSim(w.cells[ci].scheme, -1)
		if err != nil {
			return failed, err
		}
		if err := sim.PlayTape(context.Background(), w.cells[ci].libTape); err != nil {
			return failed, err
		}
		if err := sim.Finish(); err != nil {
			return failed, err
		}
		refs[ci] = simFigures(sim)
	}
	for ri, out := range w.runs {
		for ci, ref := range refs {
			if err := compare(fmt.Sprintf("rep %d %s vs memo-less kernel", ri, w.cells[ci].name), out[ci], ref); err != nil {
				note(err)
			}
		}
		for ci := range out {
			if err := compare(fmt.Sprintf("rep %d %s vs rep 0", ri, w.cells[ci].name), out[ci], w.runs[0][ci]); err != nil {
				note(err)
			}
		}
	}
	return failed, first
}

func (w *replay) close() {}
