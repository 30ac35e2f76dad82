package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/transport"
)

// runResult is one set-up, measured window and check of a workload.
type runResult struct {
	setupS     []float64
	w          *window
	violations []string
	traced     map[string]float64 // per-layer metrics (traced runs only)
}

// runOnce sets the cluster up `setups` times (timing each, keeping the
// last), drives the window on it, checks correctness and tears it down.
func runOnce(s spec, st *stream, root string, traced bool, setups int) (*runResult, error) {
	res := &runResult{}
	var (
		b  *testbed
		tr *tracer
	)
	for k := 0; k < setups; k++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", k))
		if traced {
			tr = newTracer(st.total())
		}
		start := time.Now()
		var err error
		if b, err = newTestbed(s, dir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err = b.waitLeader(10 * time.Second); err == nil {
			err = b.preload(st)
		}
		if err != nil {
			b.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		if k < setups-1 {
			b.stop()
			os.RemoveAll(dir)
		}
	}
	defer b.stop()

	var t0 traceSnap
	var tcp0 transport.TCPStats
	w := drive(b, st, func() {
		if tr != nil {
			t0, tcp0 = tr.snap(), b.tcpStats()
		}
	})
	res.w = w
	var t1 traceSnap
	var tcp1 transport.TCPStats
	if tr != nil {
		t1, tcp1 = tr.snap(), b.tcpStats()
	}
	res.violations = append(res.violations, w.errs...)
	res.violations = append(res.violations, b.verify(st, w)...)
	if s.crashEvery > 0 && len(res.violations) == 0 {
		// Durability across restarts: restart every replica from its data
		// directory and judge the recovered state against the same history.
		if err := b.restartAll(); err != nil {
			res.violations = append(res.violations, "full restart: "+err.Error())
		} else {
			res.violations = append(res.violations, b.verify(st, w)...)
		}
	}
	if tr != nil {
		b.stop()
		res.traced = layerMetrics(b, tr, st, w, t0, t1, tcp0, tcp1)
	}
	return res, nil
}

// verify waits for the replicas to converge and runs every check.
func (b *testbed) verify(st *stream, w *window) []string {
	if err := b.quiesce(10 * time.Second); err != nil {
		return []string{err.Error()}
	}
	var images [][]byte
	for _, r := range b.reps {
		img, err := r.node.Load().Store().Snapshot()
		if err != nil {
			return []string{"snapshot: " + err.Error()}
		}
		images = append(images, img)
	}
	v := checkReplicas(images)
	store := b.reps[0].node.Load().Store()
	final := map[string]int64{}
	for _, k := range st.keys {
		if val, ok := store.Get(k); ok {
			final[k] = opOf(val)
		}
	}
	if store.Len() != len(final) {
		v = append(v, fmt.Sprintf("lost write: store holds %d keys, the workload wrote %d", store.Len(), len(final)))
	}
	return append(v, checkHistory(history(st, w), final)...)
}

// restartAll crash-stops every replica, then restarts each from its data
// directory and waits for a leader.
func (b *testbed) restartAll() error {
	for i := range b.reps {
		b.crash(i)
	}
	for i := range b.reps {
		if err := b.startHost(i); err != nil {
			return err
		}
	}
	_, err := b.waitLeader(10 * time.Second)
	return err
}

func (b *testbed) tcpStats() transport.TCPStats {
	var s transport.TCPStats
	for _, r := range b.reps {
		if r.tcp == nil {
			continue
		}
		x := r.tcp.Stats()
		s.FramesSent += x.FramesSent
		s.RawBytes += x.RawBytes
		s.WireBytes += x.WireBytes
		s.DroppedFrames += x.DroppedFrames
		s.EncodeNanos += x.EncodeNanos
	}
	return s
}

// latencies returns sorted latencies in ms from due time of the measured
// window's reads or writes; a request that failed counts as the full
// deadline.
func latencies(st *stream, w *window, reads bool) []float64 {
	var out []float64
	for i, o := range st.window {
		if o.read != reads || o.due < warmup {
			continue
		}
		r := w.res[i]
		if r.ok {
			out = append(out, float64(r.ack-r.due)/1e6)
		} else {
			out = append(out, float64(deadline)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd is the untraced run's gated metrics: set-up time and the
// resources one op costs at the workload's fixed rate. They hold within a
// few percent while the machine's other tenants come and go; latency does
// not (see README), so it is among the extras.
func endToEnd(res *runResult) map[string]float64 {
	w := res.w
	done := float64(w.completed)
	return map[string]float64{
		"setup_s":            median(res.setupS),
		"cpu_us_per_op":      float64(w.cpu.Microseconds()) / done,
		"alloc_bytes_per_op": float64(w.allocs) / done,
		"heap_peak_mb":       float64(w.heapPeak) / (1 << 20),
	}
}

// extras is what an untraced run reports without a gate: latency from due
// time, generator lateness, failover outage and the fail fraction.
func extras(st *stream, w *window) map[string]float64 {
	writes, reads := latencies(st, w, false), latencies(st, w, true)
	late50, late99, lateMax := lateness(w)
	return map[string]float64{
		"write_p50_ms": percentile(writes, 0.5),
		"write_p90_ms": percentile(writes, 0.9),
		"write_p99_ms": percentile(writes, 0.99),
		"read_p50_ms":  percentile(reads, 0.5),
		"read_p90_ms":  percentile(reads, 0.9),
		"read_p99_ms":  percentile(reads, 0.99),

		"loadgen.late_p50_ms": late50, "loadgen.late_p99_ms": late99, "loadgen.late_max_ms": lateMax,
		"recovery.unavail_ms": unavailMs(w),
		"fail_frac":           float64(failures(w)) / float64(len(w.res)),
	}
}

// failures counts requests, warm-up included, that did not succeed:
// errors, refusals that ran out of deadline, deadline misses and
// generator refusals.
func failures(w *window) int {
	n := 0
	for _, r := range w.res {
		if !r.ok {
			n++
		}
	}
	return n
}

// lateness is how late the pacer released requests (p50, p99, max; ms).
func lateness(w *window) (p50, p99, max float64) {
	late := make([]float64, len(w.lateNs))
	for i, l := range w.lateNs {
		late[i] = float64(l) / 1e6
	}
	sort.Float64s(late)
	return percentile(late, 0.5), percentile(late, 0.99), late[len(late)-1]
}

// unavailMs is the median over the window's crashes of the time from the
// crash to the first acknowledgement of a request due after it.
func unavailMs(w *window) float64 {
	var gaps []float64
	for _, c := range w.crashes {
		first := int64(-1)
		for _, r := range w.res {
			if r.ok && r.due >= c.at && (first < 0 || r.ack < first) {
				first = r.ack
			}
		}
		if first >= 0 {
			gaps = append(gaps, float64(first-c.at)/1e6)
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	return median(gaps)
}

// layerMetrics computes the traced run's per-layer metrics from the
// tracer's window snapshots, the stage stamps and a post-run replay.
func layerMetrics(b *testbed, tr *tracer, st *stream, w *window, t0, t1 traceSnap, tcp0, tcp1 transport.TCPStats) map[string]float64 {
	done := float64(w.completed)
	per := func(d int64) float64 { return float64(d) / done }
	usPer := func(d int64) float64 { return float64(d) / 1e3 / done }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]float64{}

	_, m["loadgen.late_p99_ms"], m["loadgen.late_max_ms"] = lateness(w)
	m["loadgen.inflight_max"] = float64(w.inflightMax)

	engCall := histDelta(t0.engCall, t1.engCall)
	m["engine.busy_us_per_op"] = usPer(t1.engBusy - t0.engBusy)
	m["engine.call_p99_us"] = histQuantile(engCall, 0.99) / 1e3
	m["engine.calls_per_op"] = per(t1.engCalls - t0.engCalls)
	m["engine.submit_batch_mean"] = ratio(t1.engSubmitted-t0.engSubmitted, t1.engSubmits-t0.engSubmits)
	m["engine.msgs_per_op"] = per(t1.engMsgs - t0.engMsgs)
	m["engine.appended_entries_per_op"] = per(t1.engAppended - t0.engAppended)
	m["engine.elections"] = float64(t1.maxTerm - t0.maxTerm)
	m["engine.leader_changes"] = float64(t1.leaderChanges - t0.leaderChanges)
	m["engine.follower_lag_p99"] = histQuantile(histDelta(t0.followerLag, t1.followerLag), 0.99)

	// Per-write stages, on the tracer clock, for measured writes the client
	// sent once.
	off := int64(w.base.Sub(tr.clock))
	lo := len(st.preload)
	call := func(i int) int64 {
		r := w.res[i-lo]
		if o := st.window[i-lo]; o.read || o.due < warmup || r.retries > 0 || !r.sent {
			return 0
		}
		return r.invoke + off
	}
	ack := func(i int) int64 {
		if r := w.res[i-lo]; r.ok {
			return r.ack + off
		}
		return 0
	}
	appended := func(i int) int64 { return tr.appendedAt[i].Load() }
	persisted := func(i int) int64 { return tr.persistedAt[i].Load() }
	committed := func(i int) int64 { return tr.committedAt[i].Load() }
	hi := st.total()
	m["cluster.queue_p50_us"], m["cluster.queue_p99_us"] = stageStats(call, appended, lo, hi)
	m["cluster.persist_p50_us"], m["cluster.persist_p99_us"] = stageStats(appended, persisted, lo, hi)
	m["cluster.commit_p50_us"], m["cluster.commit_p99_us"] = stageStats(appended, committed, lo, hi)
	m["cluster.reply_p50_us"], m["cluster.reply_p99_us"] = stageStats(committed, ack, lo, hi)
	m["cluster.read_serve_p50_us"] = histQuantile(histDelta(t0.readServe, t1.readServe), 0.5) / 1e3

	syncs := histDelta(t0.syncHist, t1.syncHist)
	snaps := histDelta(t0.snapHist, t1.snapHist)
	m["storage.append_us_per_op"] = usPer(t1.appendNs - t0.appendNs)
	m["storage.sync_us_per_op"] = usPer(t1.syncNs - t0.syncNs)
	m["storage.sync_p50_us"] = histQuantile(syncs, 0.5) / 1e3
	m["storage.sync_p99_us"] = histQuantile(syncs, 0.99) / 1e3
	m["storage.syncs_per_op"] = per(t1.syncCalls - t0.syncCalls)
	m["storage.entries_per_sync"] = ratio(t1.appendEntries-t0.appendEntries, t1.syncCalls-t0.syncCalls)
	m["storage.snapshot_ms_p50"] = histQuantile(snaps, 0.5) / 1e6
	m["storage.snapshot_ms_max"] = histMax(snaps) / 1e6
	m["storage.snapshots"] = float64(histCount(snaps))
	m["storage.open_ms"] = histQuantile(tr.openHist.snap(), 0.5) / 1e6

	m["transport.send_us_per_op"] = usPer(t1.sendNs - t0.sendNs)
	m["transport.deliver_us_per_op"] = usPer(t1.deliverNs - t0.deliverNs)
	m["transport.frames_per_op"] = per(tcp1.FramesSent - tcp0.FramesSent)
	m["transport.wire_bytes_per_op"] = per(tcp1.WireBytes - tcp0.WireBytes)
	m["transport.raw_bytes_per_op"] = per(tcp1.RawBytes - tcp0.RawBytes)
	m["transport.encode_us_per_op"] = usPer(tcp1.EncodeNanos - tcp0.EncodeNanos)
	m["transport.dropped_frames"] = float64(tcp1.DroppedFrames - tcp0.DroppedFrames)

	for k, v := range kvstoreMetrics(tr) {
		m[k] = v
	}
	m["lease.local_read_frac"] = ratio(t1.readLocal-t0.readLocal, (t1.readLocal-t0.readLocal)+(t1.readConfirmed-t0.readConfirmed))

	var catchups []float64
	for _, c := range w.crashes {
		catchups = append(catchups, c.catchupMs)
	}
	if len(catchups) > 0 {
		m["recovery.catchup_ms"] = median(catchups)
	} else {
		m["recovery.catchup_ms"] = 0
	}
	var installs int64
	for _, r := range b.reps {
		for _, n := range r.incarnations {
			_, _, in := n.SnapshotTransferStats()
			installs += in
		}
	}
	m["recovery.snapshot_installs"] = float64(installs)
	m["recovery.unavail_ms"] = unavailMs(w)
	return m
}

// kvstoreMetrics replays the run's committed entries through a fresh
// kvstore and times apply, snapshot and restore on the final state.
func kvstoreMetrics(tr *tracer) map[string]float64 {
	log := tr.committedLog()
	kv := kvstore.New()
	start := time.Now()
	for _, e := range log {
		kv.Apply(e)
	}
	apply := time.Since(start)
	start = time.Now()
	img, _ := kv.Snapshot() // cannot fail for kvstore
	snap := time.Since(start)
	start = time.Now()
	_ = kvstore.New().Restore(img) // the image was just produced
	restore := time.Since(start)
	m := map[string]float64{
		"kvstore.snapshot_ms":    float64(snap) / 1e6,
		"kvstore.restore_ms":     float64(restore) / 1e6,
		"kvstore.snapshot_bytes": float64(len(img)),
	}
	if len(log) > 0 {
		m["kvstore.apply_ns_per_entry"] = float64(apply) / float64(len(log))
	} else {
		m["kvstore.apply_ns_per_entry"] = 0
	}
	return m
}
