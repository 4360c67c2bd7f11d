package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nanobus/client"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/nbwp"
	"nanobus/internal/server"
)

// The NBWP workload is the daemon's fast transport on address traffic:
// nbwpSessions sessions over nbwpConns pipelined connections, one driver
// goroutine per connection keeping nbwpWindow STEP frames in flight
// (a closed loop), samples streamed back as SAMPLE frames.
const (
	nbwpNode     = "90nm"
	nbwpScheme   = "Unencoded"
	nbwpInterval = 1024
	nbwpSessions = 8
	nbwpConns    = 2
	nbwpWindow   = 8
	nbwpBatches  = 320 // STEP frames per session per rep; 25 beyond each rep's p99
)

type nbwpFrame struct {
	conn, sess, batch int
	send, ack         int64 // unix ns
}

type nbwpLoad struct {
	srv       *server.Server
	ln        net.Listener
	serveDone chan error
	conns     []*client.NBWPConn
	sess      []*client.NBWPSession
	samples   atomic.Int64

	seeds   []uint32 // per session address generator seed
	results [][]figures
	bad     []error

	// Last traced rep, and the re-drive's library simulators and layer
	// shadows, kept across reps with warm memos as the server's pool is.
	frames     []nbwpFrame
	tracedWall int64
	tracedSamp int64
	tracedFail int
	sims       []*core.Simulator
	shadows    []*shadow
}

func nbwpSessionConfig() client.SessionConfig {
	return client.SessionConfig{Node: nbwpNode, Encoding: nbwpScheme, IntervalCycles: nbwpInterval, DropSamples: true}
}

func setupNBWP(seed uint64, _ *layerTotals) (runner, error) {
	w := &nbwpLoad{srv: server.New(server.Config{}), serveDone: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.ln = ln
	go func() { w.serveDone <- w.srv.ServeNBWP(ln) }()
	ctx := context.Background()
	for i := 0; i < nbwpConns; i++ {
		nc, err := client.DialNBWP(ctx, ln.Addr().String())
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, nc)
	}
	for i := 0; i < nbwpSessions; i++ {
		w.seeds = append(w.seeds, uint32(splitmix(seed*nbwpSessions+uint64(i))))
	}
	if err := w.open(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// open starts one session per stream, spread over the connections.
func (w *nbwpLoad) open() error {
	w.sess = w.sess[:0]
	onSample := func(client.Sample) { w.samples.Add(1) }
	for i := range w.seeds {
		s, err := w.conns[i%nbwpConns].Open(context.Background(), nbwpSessionConfig(), onSample)
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
		w.sess = append(w.sess, s)
	}
	return nil
}

func (w *nbwpLoad) rep(traced bool) (repStats, error) {
	ctx := context.Background()
	w.samples.Store(0)
	lat := make([][]float64, nbwpConns)
	fails := make([]int, nbwpConns)
	frames := make([][]nbwpFrame, nbwpConns)
	var wg sync.WaitGroup
	c0 := cpuTime()
	t0 := time.Now()
	for c := 0; c < nbwpConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c], fails[c], frames[c] = w.drive(ctx, c, traced)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	st := repStats{wall: wall, cpu: cpuTime() - c0, words: int64(nbwpSessions * nbwpBatches * opWords)}
	for c := range lat {
		st.lat = append(st.lat, lat[c]...)
		st.failed += fails[c]
	}

	out := make([]figures, len(w.sess))
	for i, s := range w.sess {
		res, err := s.Result(ctx, true)
		if err != nil {
			return st, fmt.Errorf("session %d result: %w", i, err)
		}
		out[i] = resultFigures(res.Total, res.Cycles, res.TempsK)
		if err := s.Close(ctx); err != nil {
			return st, fmt.Errorf("session %d close: %w", i, err)
		}
	}
	w.results = append(w.results, out)
	want := int64(nbwpSessions * nbwpBatches * opWords / nbwpInterval)
	if got := w.samples.Load(); got != want {
		w.bad = append(w.bad, fmt.Errorf("rep %d: %d SAMPLE frames, want %d", len(w.results)-1, got, want))
	}
	if traced {
		w.frames = w.frames[:0]
		for _, f := range frames {
			w.frames = append(w.frames, f...)
		}
		w.tracedWall = wall.Nanoseconds()
		w.tracedSamp = w.samples.Load()
		w.tracedFail = st.failed
	}
	return st, w.open()
}

// drive runs connection c's sessions round-robin with up to nbwpWindow
// frames in flight, settling the oldest ack when the window is full.
// Latency is send to ack and includes waiting behind earlier frames.
func (w *nbwpLoad) drive(ctx context.Context, c int, traced bool) (lat []float64, failed int, frames []nbwpFrame) {
	type inflight struct {
		sp   *client.StepPending
		f    nbwpFrame
		sent time.Time
	}
	ring := make([]inflight, nbwpWindow)
	head, count := 0, 0
	// Each rep regenerates every session's stream from its seed; the
	// send copies the words into the frame, so one buffer serves all.
	gens := make([]*addressGen, nbwpSessions)
	for i := c; i < nbwpSessions; i += nbwpConns {
		gens[i] = newAddressGen(w.seeds[i])
	}
	buf := make([]uint32, opWords)
	settle := func() {
		in := ring[head]
		head = (head + 1) % nbwpWindow
		count--
		sum, err := in.sp.Wait(ctx)
		now := time.Now()
		lat = append(lat, durMs(now.Sub(in.sent)))
		if err != nil || sum.Words != opWords {
			failed++
		}
		if traced {
			in.f.ack = now.UnixNano()
			frames = append(frames, in.f)
		}
	}
	for b := 0; b < nbwpBatches; b++ {
		for i := c; i < nbwpSessions; i += nbwpConns {
			if count == nbwpWindow {
				settle()
			}
			gens[i].fill(buf)
			sent := time.Now()
			sp, err := w.sess[i].SendStepSeq(uint64(b+1), buf)
			if err != nil {
				lat = append(lat, durMs(time.Since(sent)))
				failed++
				continue
			}
			ring[(head+count)%nbwpWindow] = inflight{sp, nbwpFrame{conn: c, sess: i, batch: b, send: sent.UnixNano()}, sent}
			count++
		}
	}
	for count > 0 {
		settle()
	}
	return lat, failed, frames
}

// resultFigures is what the checks compare for one bus of a service
// result, in simFigures's order.
func resultFigures(tot server.EnergySplit, cycles uint64, temps []float64) figures {
	var f figures
	f.add("self_j", tot.SelfJ)
	f.add("coup_adj_j", tot.CoupAdjJ)
	f.add("coup_non_adj_j", tot.CoupNonAdjJ)
	f.add("cycles", float64(cycles))
	for i, t := range temps {
		f.add(fmt.Sprintf("temp_k[%d]", i), t)
	}
	return f
}

func (w *nbwpLoad) libSim() (*core.Simulator, error) {
	node, err := itrs.Resolve(nbwpNode)
	if err != nil {
		return nil, err
	}
	enc, err := encoding.New(nbwpScheme)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{Node: node, Encoder: enc, CouplingDepth: -1, IntervalCycles: nbwpInterval, DropSamples: true})
}

// redrive re-runs the last traced rep's frames through a library
// simulator, the layer shadows and the frame codec, then charges each
// frame's remaining service time to the server.
func (w *nbwpLoad) redrive(l *layerTotals) error {
	if w.sims == nil {
		node, err := itrs.Resolve(nbwpNode)
		if err != nil {
			return err
		}
		for range w.seeds {
			sim, err := w.libSim()
			if err != nil {
				return err
			}
			sh, err := newShadow(node, nbwpScheme, nbwpInterval, 1)
			if err != nil {
				return err
			}
			w.sims = append(w.sims, sim)
			w.shadows = append(w.shadows, sh)
		}
	}
	for i := range w.sims {
		w.sims[i].Reset()
		w.shadows[i].reset()
	}
	ctx := context.Background()
	var buf bytes.Buffer
	fw := nbwp.FrameWriter{W: &buf}
	fr := nbwp.FrameReader{R: &buf, Max: -1}
	var payload []byte
	dst := make([]uint32, opWords)
	coreNs := make([]int64, len(w.frames))
	codecNs := make([]int64, len(w.frames))
	gens := make([]*addressGen, nbwpSessions)
	next := make([]int, nbwpSessions)
	for i := range gens {
		gens[i] = newAddressGen(w.seeds[i])
	}
	words := make([]uint32, opWords)
	for fi, f := range w.frames {
		// A session's acks arrive in batch order, so its generator
		// replays the rep's stream.
		if f.batch != next[f.sess] {
			return fmt.Errorf("session %d: frame for batch %d, want %d", f.sess, f.batch, next[f.sess])
		}
		next[f.sess]++
		gens[f.sess].fill(words)
		t0 := time.Now()
		if _, err := w.sims[f.sess].StepBatch(ctx, words); err != nil {
			return err
		}
		t1 := time.Now()
		payload = nbwp.AppendWords(payload[:0], words)
		h := nbwp.Header{Type: nbwp.TypeStep, Flags: nbwp.FlagSeq, Slot: uint8(f.sess + 1), Seq: uint32(f.batch + 1)}
		if err := fw.WriteFrame(h, payload); err != nil {
			return err
		}
		frameBytes := buf.Len()
		var got nbwp.Header
		p, err := fr.ReadFrame(&got)
		if err != nil {
			return err
		}
		if n := len(nbwp.Words(dst, p)); n != opWords {
			return fmt.Errorf("nbwp re-drive decoded %d words, want %d", n, opWords)
		}
		t2 := time.Now()
		coreNs[fi] = t1.Sub(t0).Nanoseconds()
		codecNs[fi] = t2.Sub(t1).Nanoseconds()
		l.nbwpNs += codecNs[fi]
		l.nbwpFrames++
		l.nbwpBytes += int64(frameBytes)
		l.nbwpWords += opWords
		l.coreNs += coreNs[fi]
		l.coreWords += opWords
		l.explainedNs += coreNs[fi] + codecNs[fi]
		if err := w.shadows[f.sess].step(words); err != nil {
			return err
		}
	}
	for _, sh := range w.shadows {
		l.addShadow(sh)
	}
	// Acks come back in send order per connection, so a frame is being
	// served from the later of its send and the previous ack.
	for c := 0; c < nbwpConns; c++ {
		var prevAck int64
		for fi, f := range w.frames {
			if f.conn != c {
				continue
			}
			service := f.ack - max(f.send, prevAck)
			prevAck = f.ack
			l.residualNs += service - coreNs[fi] - codecNs[fi]
			l.waitNs += f.ack - f.send
			l.ops++
		}
	}
	l.laneNs += w.tracedWall * nbwpConns
	l.acks += int64(len(w.frames) - w.tracedFail)
	l.samples += w.tracedSamp
	l.errors += int64(w.tracedFail)
	return nil
}

func (w *nbwpLoad) verify() (int, error) {
	failed := len(w.bad)
	var first error
	if failed > 0 {
		first = w.bad[0]
	}
	words := make([]uint32, opWords)
	for i, seed := range w.seeds {
		sim, err := w.libSim()
		if err != nil {
			return failed, err
		}
		g := newAddressGen(seed)
		for b := 0; b < nbwpBatches; b++ {
			g.fill(words)
			if _, err := sim.StepBatch(context.Background(), words); err != nil {
				return failed, err
			}
		}
		if err := sim.Finish(); err != nil {
			return failed, err
		}
		ref := simFigures(sim)
		for ri, out := range w.results {
			if err := compare(fmt.Sprintf("rep %d session %d vs library", ri, i), out[i], ref); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	return failed, first
}

func (w *nbwpLoad) close() {
	for _, nc := range w.conns {
		_ = nc.Close()
	}
	w.conns = nil
	if w.ln != nil {
		_ = w.ln.Close()
		<-w.serveDone
		w.ln = nil
	}
}
