package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nanobus/client"
	"nanobus/internal/blob"
	"nanobus/internal/core"
	"nanobus/internal/encoding"
	"nanobus/internal/itrs"
	"nanobus/internal/server"
)

// The durable workload writes beside reads on the HTTP v1 surface: two
// sessions of durableBuses coupled buses, one closed-loop driver each,
// write-ahead sequenced steps, automatic checkpoints to a file store and,
// every durableRestoreEvery steps, a downloaded checkpoint that is
// restored after durableReplay more steps, which are then replayed.
const (
	durableNode     = "65nm"
	durableBuses    = 4
	durableInterval = 512
	durableSessions = 2
	durableRows     = 4096 // cycles per step request
	durableRequests = 1024 // step requests per session per rep, before replays
	// Checkpointing steps wait on the file store, and the first step
	// after a restore refills the transition memo, which checkpoints do
	// not carry. Both are slow, and when together they made up about 1%
	// of steps, step_p99_ms jumped between them and the ordinary steps
	// from run to run. Here they stay near 0.6% (12 of 2,080 steps per
	// rep), so the p99 is the ordinary steps' tail.
	durableAutoCkpt     = 512 * durableRows
	durableRestoreEvery = 256
	durableReplay       = 4
	// workDir holds the checkpoint store, inside the directory the
	// benchmark runs from.
	workDir = ".bench_build"
	// redriveBlobID names the re-drive's checkpoint blob; store ids are
	// lowercase hex.
	redriveBlobID = "0ddba11"
)

const (
	opStep = iota
	opDownload
	opRestore
)

type durableOp struct {
	kind, req  int
	start, end int64 // unix ns
}

type durable struct {
	dir   string
	store *blob.FSStore
	srv   *server.Server
	ts    *httptest.Server
	c     *client.Client
	sess  []*client.HTTPSession

	bases   [][]uint32 // per session: each bus's first address (see seqRows)
	results [][]figures

	ops        [][]durableOp // last traced rep, per session
	getUs      []float64     // its stored checkpoints' read times
	ckptBytes  []float64     // and sizes
	tracedWall int64
	tracedSamp int64
	tracedFail int
}

func durableConfig() client.SessionConfig {
	return client.SessionConfig{
		Node: durableNode, Buses: durableBuses, IntervalCycles: durableInterval, DropSamples: true,
	}
}

func setupDurable(seed uint64, _ *layerTotals) (runner, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "durable-")
	if err != nil {
		return nil, err
	}
	w := &durable{dir: dir}
	if w.store, err = blob.NewFSStore(filepath.Join(dir, "store")); err != nil {
		w.close()
		return nil, err
	}
	w.srv = server.New(server.Config{Store: w.store, AutoCheckpointCycles: durableAutoCkpt})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.c = client.New(w.ts.URL)
	for i := 0; i < durableSessions; i++ {
		base := make([]uint32, durableBuses)
		for k := range base {
			base[k] = uint32(splitmix(seed*durableSessions*durableBuses+uint64(i*durableBuses+k))) &^ 3
		}
		w.bases = append(w.bases, base)
	}
	if err := w.open(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *durable) open() error {
	w.sess = w.sess[:0]
	for i := range w.bases {
		s, err := w.c.CreateSession(context.Background(), durableConfig())
		if err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		w.sess = append(w.sess, s)
	}
	return nil
}

// batch fills dst (durableRows*durableBuses words) with session i's
// request req.
func (w *durable) batch(dst []uint32, i, req int) []uint32 {
	seqRows(dst, w.bases[i], req*durableRows)
	return dst
}

func (w *durable) rep(traced bool) (repStats, error) {
	ctx := context.Background()
	lat := make([][]float64, durableSessions)
	fails := make([]int, durableSessions)
	samples := make([]int64, durableSessions)
	ops := make([][]durableOp, durableSessions)
	var wg sync.WaitGroup
	c0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < durableSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat[i], fails[i], samples[i], ops[i] = w.drive(ctx, i)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	st := repStats{wall: wall, cpu: cpuTime() - c0}
	var samp int64
	for i := range lat {
		st.lat = append(st.lat, lat[i]...)
		st.failed += fails[i]
		samp += samples[i]
		for _, op := range ops[i] {
			if op.kind == opStep {
				st.words += durableRows * durableBuses
			}
		}
	}

	out := make([]figures, 0, durableSessions*durableBuses)
	w.getUs, w.ckptBytes = w.getUs[:0], w.ckptBytes[:0]
	for i, s := range w.sess {
		res, err := s.Result(ctx, true)
		if err != nil {
			return st, fmt.Errorf("session %d result: %w", i, err)
		}
		if len(res.PerBus) != durableBuses {
			return st, fmt.Errorf("session %d result has %d buses, want %d", i, len(res.PerBus), durableBuses)
		}
		for _, b := range res.PerBus {
			out = append(out, resultFigures(b.Total, res.Cycles, b.TempsK))
		}
		if traced {
			// The session's own stored checkpoint, read before close
			// deletes it.
			t0 := time.Now()
			data, err := w.store.Get(ctx, s.ID())
			if err != nil {
				return st, fmt.Errorf("session %d stored checkpoint: %w", i, err)
			}
			w.getUs = append(w.getUs, us(time.Since(t0)))
			w.ckptBytes = append(w.ckptBytes, float64(len(data)))
		}
		if err := s.Close(ctx); err != nil {
			return st, fmt.Errorf("session %d close: %w", i, err)
		}
	}
	w.results = append(w.results, out)
	if traced {
		w.ops = ops
		w.tracedWall = wall.Nanoseconds()
		w.tracedSamp = samp
		w.tracedFail = st.failed
	}
	return st, w.open()
}

// drive runs session i's steps in a closed loop and records every
// request it makes; steps are the ops.
func (w *durable) drive(ctx context.Context, i int) (lat []float64, failed int, samples int64, ops []durableOp) {
	s := w.sess[i]
	buf := make([]uint32, durableRows*durableBuses)
	step := func(req int) {
		t0 := time.Now()
		sum, err := s.StepBinarySeq(ctx, uint64(req+1), w.batch(buf, i, req))
		t1 := time.Now()
		lat = append(lat, durMs(t1.Sub(t0)))
		if err != nil || sum.Duplicate {
			failed++
		}
		samples += int64(sum.Samples)
		ops = append(ops, durableOp{opStep, req, t0.UnixNano(), t1.UnixNano()})
	}
	for req := 0; req < durableRequests; req++ {
		step(req)
		if req%durableRestoreEvery != durableRestoreEvery/2 || req+durableReplay >= durableRequests {
			continue
		}
		t0 := time.Now()
		env, err := s.CheckpointDownload(ctx)
		ops = append(ops, durableOp{opDownload, req, t0.UnixNano(), time.Now().UnixNano()})
		if err != nil {
			failed++
			continue
		}
		// Steps past the checkpoint that the restore rolls back; the
		// loop then replays them.
		for k := 1; k <= durableReplay; k++ {
			step(req + k)
		}
		t0 = time.Now()
		_, err = s.RestoreFrom(ctx, env)
		ops = append(ops, durableOp{opRestore, req, t0.UnixNano(), time.Now().UnixNano()})
		if err != nil {
			failed++
		}
	}
	return lat, failed, samples, ops
}

func (w *durable) libMulti() (*core.MultiSim, error) {
	node, err := itrs.Resolve(durableNode)
	if err != nil {
		return nil, err
	}
	enc, err := encoding.New("Unencoded")
	if err != nil {
		return nil, err
	}
	return core.NewMulti(core.MultiConfig{
		Config: core.Config{Node: node, Encoder: enc, CouplingDepth: -1, IntervalCycles: durableInterval, DropSamples: true},
		Buses:  durableBuses,
	})
}

// redrive re-runs the last traced rep's requests through a library
// multi-bus simulator (fresh, as the server builds one per session), the
// layer shadows, and the checkpoint codec and file store at the points
// the server checkpoints, then charges the rest of each request to the
// server.
func (w *durable) redrive(l *layerTotals) error {
	ctx := context.Background()
	node, err := itrs.Resolve(durableNode)
	if err != nil {
		return err
	}
	shadowStore, err := blob.NewFSStore(filepath.Join(w.dir, "redrive"))
	if err != nil {
		return err
	}
	for i, ops := range w.ops {
		ms, err := w.libMulti()
		if err != nil {
			return err
		}
		sh, err := newShadow(node, "Unencoded", durableInterval, durableBuses)
		if err != nil {
			return err
		}
		var cycles, ckptCycles uint64
		var saved []byte
		// checkpoint snapshots and stores the state, as the server does
		// on an automatic checkpoint or a download.
		checkpoint := func() (int64, error) {
			t0 := time.Now()
			data, err := ms.Snapshot()
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			if err := shadowStore.Put(ctx, redriveBlobID, data); err != nil {
				return 0, err
			}
			t2 := time.Now()
			l.snapshotUs = append(l.snapshotUs, us(t1.Sub(t0)))
			l.putUs = append(l.putUs, us(t2.Sub(t1)))
			saved, ckptCycles = data, cycles
			return t2.Sub(t0).Nanoseconds(), nil
		}
		buf := make([]uint32, durableRows*durableBuses)
		for _, op := range ops {
			span := op.end - op.start
			var layerNs int64
			switch op.kind {
			case opStep:
				words := w.batch(buf, i, op.req)
				t0 := time.Now()
				if _, err := ms.StepBatch(ctx, words); err != nil {
					return err
				}
				stepNs := time.Since(t0).Nanoseconds()
				l.coreNs += stepNs
				l.coreWords += int64(len(words))
				layerNs = stepNs
				cycles += durableRows
				if cycles-ckptCycles >= durableAutoCkpt {
					ns, err := checkpoint()
					if err != nil {
						return err
					}
					layerNs += ns
				}
				if err := sh.step(words); err != nil {
					return err
				}
				l.waitNs += span
				l.ops++
			case opDownload:
				ns, err := checkpoint()
				if err != nil {
					return err
				}
				layerNs = ns
			case opRestore:
				t0 := time.Now()
				if err := ms.Restore(saved); err != nil {
					return err
				}
				layerNs = time.Since(t0).Nanoseconds()
				l.restoreUs = append(l.restoreUs, us(time.Duration(layerNs)))
				cycles, ckptCycles = ms.Cycles(), ms.Cycles()
			}
			l.residualNs += span - layerNs
			l.explainedNs += layerNs
		}
		if err := sh.flush(); err != nil {
			return err
		}
		l.addShadow(sh)
	}
	l.getUs = append(l.getUs, w.getUs...)
	l.checkpointBytes = append(l.checkpointBytes, w.ckptBytes...)
	l.laneNs += w.tracedWall * durableSessions
	l.acks += int64(stepOps(w.ops) - w.tracedFail)
	l.samples += w.tracedSamp
	l.errors += int64(w.tracedFail)
	return nil
}

// stepOps counts the step requests among ops.
func stepOps(ops [][]durableOp) int {
	n := 0
	for _, s := range ops {
		for _, op := range s {
			if op.kind == opStep {
				n++
			}
		}
	}
	return n
}

func (w *durable) verify() (int, error) {
	failed := 0
	var first error
	buf := make([]uint32, durableRows*durableBuses)
	for i := range w.bases {
		ms, err := w.libMulti()
		if err != nil {
			return failed, err
		}
		for req := 0; req < durableRequests; req++ {
			if _, err := ms.StepBatch(context.Background(), w.batch(buf, i, req)); err != nil {
				return failed, err
			}
		}
		if err := ms.Finish(); err != nil {
			return failed, err
		}
		for k := 0; k < durableBuses; k++ {
			var ref figures
			tot := ms.TotalEnergy(k)
			ref.add("self_j", tot.Self)
			ref.add("coup_adj_j", tot.CoupAdj)
			ref.add("coup_non_adj_j", tot.CoupNonAdj)
			ref.add("cycles", float64(ms.Cycles()))
			for j, t := range ms.BusTemps(k) {
				ref.add(fmt.Sprintf("temp_k[%d]", j), t)
			}
			for ri, out := range w.results {
				what := fmt.Sprintf("rep %d session %d bus %d (restored and replayed) vs uninterrupted library run", ri, i, k)
				if err := compare(what, out[i*durableBuses+k], ref); err != nil {
					failed++
					if first == nil {
						first = err
					}
				}
			}
		}
	}
	return failed, first
}

func (w *durable) close() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}
