package main

import "time"

// perLayer lists the traced run's metrics; every workload reports all of
// them, with 0 for a layer the workload does not run.
var perLayer = []metric{
	{"encoding.ns_per_word", "ns/word", "lower"},
	{"energy.ns_per_word", "ns/word", "lower"},
	{"energy.memo_hit_ratio", "ratio", "higher"},
	{"energy.memo_misses_per_kword", "count/kword", "lower"},
	{"thermal.ns_per_advance", "ns", "lower"},
	{"thermal.advances_per_kword", "count/kword", "lower"},
	{"core.ns_per_word", "ns/word", "lower"},
	{"core.self_ns_per_word", "ns/word", "lower"},
	{"core.snapshot_us", "us", "lower"},
	{"core.restore_us", "us", "lower"},
	{"core.checkpoint_bytes", "bytes", "lower"},
	{"blob.put_us", "us", "lower"},
	{"blob.get_us", "us", "lower"},
	{"nbwp.ns_per_frame", "ns", "lower"},
	{"nbwp.frames", "count", "higher"},
	{"nbwp.bytes_per_word", "bytes/word", "lower"},
	{"client.wait_ms", "ms", "lower"},
	{"client.inflight_mean", "count", "higher"},
	{"server.residual_ns_per_word", "ns/word", "lower"},
	{"server.acks", "count", "higher"},
	{"server.samples", "count", "higher"},
	{"server.errors", "count", "lower"},
	{"workload.capture_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_word", "bytes/word", "lower"},
	{"runtime.sched_latency_p99_us", "us", "lower"},
	{"attrib.unexplained_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// layerTotals accumulates what the traced reps and their re-drives
// measured. Per-rep counts are divided by reps when reported.
type layerTotals struct {
	// reps and words count the traced reps and the words they drove.
	reps  int
	words int64

	// Shadow re-drive of the layers under core (see shadow).
	encNs, energyNs, thermalNs int64
	shadowWords, advances      int64
	memoHits, memoMisses       uint64

	// core step calls: the workload's own simulators on paper-replay,
	// re-driven library simulators on the service workloads.
	coreNs, coreWords int64

	snapshotUs, restoreUs, putUs, getUs []float64
	checkpointBytes                     []float64

	nbwpNs, nbwpFrames, nbwpBytes, nbwpWords int64

	// Client-observed ops: summed send-to-reply time and op count.
	waitNs, ops int64
	// residualNs is the part of the ops' service time no re-driven layer
	// explains, charged to the server.
	residualNs int64

	acks, samples, errors int64

	// explainedNs is the time of the layer calls timed on their own: core
	// steps (which hold the encoding, energy and thermal children), the
	// frame codec and checkpoint snapshot, put and restore. No remainder
	// goes in. laneNs is the traced reps' end-to-end time it is compared
	// with: wall time times the connections or drivers that ran ops side
	// by side.
	explainedNs, laneNs int64

	captureS []float64
}

func (l *layerTotals) addShadow(s *shadow) {
	l.encNs += s.encNs
	l.energyNs += s.energyNs
	l.thermalNs += s.thermalNs
	l.shadowWords += s.words
	l.advances += s.advances
	m := s.memo()
	l.memoHits += m.Hits
	l.memoMisses += m.Misses
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func perWord(ns, words int64) float64 {
	if words == 0 {
		return 0
	}
	return float64(ns) / float64(words)
}

func perRep(n int64, reps int) float64 {
	if reps == 0 {
		return 0
	}
	return float64(n) / float64(reps)
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func (l *layerTotals) metrics(rt *runtimeDelta, overheadPct float64) map[string]value {
	enc := perWord(l.encNs, l.shadowWords)
	en := perWord(l.energyNs, l.shadowWords)
	th := perWord(l.thermalNs, l.shadowWords)
	core := perWord(l.coreNs, l.coreWords)
	hitRatio := 0.0
	if n := l.memoHits + l.memoMisses; n > 0 {
		hitRatio = float64(l.memoHits) / float64(n)
	}
	unexplained := 0.0
	if l.laneNs > 0 {
		unexplained = 100 * (1 - float64(l.explainedNs)/float64(l.laneNs))
	}
	inflight := 0.0
	if l.laneNs > 0 {
		inflight = float64(l.waitNs) / float64(l.laneNs)
	}
	nsPerFrame := 0.0
	if l.nbwpFrames > 0 {
		nsPerFrame = float64(l.nbwpNs) / float64(l.nbwpFrames)
	}
	waitMs := 0.0
	if l.ops > 0 {
		waitMs = float64(l.waitNs) / float64(l.ops) / 1e6
	}
	thAdv := 0.0
	if l.advances > 0 {
		thAdv = float64(l.thermalNs) / float64(l.advances)
	}
	vals := map[string]float64{
		"encoding.ns_per_word":         enc,
		"energy.ns_per_word":           en,
		"energy.memo_hit_ratio":        hitRatio,
		"energy.memo_misses_per_kword": 1000 * perWord(int64(l.memoMisses), l.shadowWords),
		"thermal.ns_per_advance":       thAdv,
		"thermal.advances_per_kword":   1000 * perWord(l.advances, l.shadowWords),
		"core.ns_per_word":             core,
		"core.self_ns_per_word":        core - enc - en - th,
		"core.snapshot_us":             medianOr0(l.snapshotUs),
		"core.restore_us":              medianOr0(l.restoreUs),
		"core.checkpoint_bytes":        medianOr0(l.checkpointBytes),
		"blob.put_us":                  medianOr0(l.putUs),
		"blob.get_us":                  medianOr0(l.getUs),
		"nbwp.ns_per_frame":            nsPerFrame,
		"nbwp.frames":                  perRep(l.nbwpFrames, l.reps),
		"nbwp.bytes_per_word":          perWord(l.nbwpBytes, l.nbwpWords),
		"client.wait_ms":               waitMs,
		"client.inflight_mean":         inflight,
		"server.residual_ns_per_word":  perWord(l.residualNs, l.words),
		"server.acks":                  perRep(l.acks, l.reps),
		"server.samples":               perRep(l.samples, l.reps),
		"server.errors":                perRep(l.errors, l.reps),
		"workload.capture_s":           medianOr0(l.captureS),
		"runtime.gc_cycles":            perRep(int64(rt.gcCycles), l.reps),
		"runtime.gc_pause_ms":          perRep(int64(rt.pauseNs), l.reps) / 1e6,
		"runtime.alloc_bytes_per_word": perWord(int64(rt.allocBytes), l.words),
		"runtime.sched_latency_p99_us": rt.schedP99Micros(),
		"attrib.unexplained_pct":       unexplained,
		"trace.overhead_pct":           overheadPct,
	}
	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = value{finite(vals[m.name]), m.unit}
	}
	return out
}
