package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"raftpaxos/internal/cluster"
)

// outcome is what the client saw of one request. Times are nanoseconds
// since the load's base instant.
type outcome struct {
	due, invoke, ack int64 // ack is 0 while unacknowledged
	sent, ok         bool  // sent is false when the generator refused it
	got              int64 // op number a read returned, -1 for no value
	retries          int32
	err              error // why a sent request failed
}

// crashEvent is one leader crash of the failover schedule.
type crashEvent struct {
	at        int64 // ns since base
	catchupMs float64
}

// window is one open-loop run: warm-up, then the measured window, whose
// resource use the counters below cover.
type window struct {
	base        time.Time // due time of offset 0
	res         []outcome
	refused     int64 // dropped by the generator at the in-flight cap
	inflightMax int64
	lateNs      []int64
	crashes     []crashEvent
	errs        []string

	cpu       time.Duration // process user+sys over the window
	allocs    uint64        // heap bytes allocated over the window
	heapPeak  uint64        // peak live heap bytes sampled over the window
	completed int           // measured requests that succeeded
}

// sleepUntil waits on a Go timer until t. When the whole runtime is idle
// the timer fires up to a millisecond late (the poller waits in whole
// milliseconds); the pacer records that lateness. A thread parked in
// nanosleep would be punctual but holds one of the two Ps until sysmon
// takes it back, which stalls the cluster's own goroutines instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (as marked by the latest GC) until
// stopped. Live bytes, unlike heap bytes in use, do not depend on where
// the window ends relative to the GC cycle.
type heapSampler struct {
	peak  atomic.Uint64
	stopc chan struct{}
	done  chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-tick.C:
			case <-h.stopc:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak.Load()
}

func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// drive runs the load, warm-up then measured window: one pacing goroutine
// releases each request at its due time into its own goroutine (up to the
// in-flight cap); a request that finds the cap full is refused and counts
// as failed. Each request has one deadline, due + deadline, and one retry
// policy: a refusal (not leader, stopped, shed) is resent to the current
// leader after a doubling backoff while the deadline allows; anything else
// ends it.
//
// onMeasure runs on the pacer when the measured window opens.
func drive(b *testbed, st *stream, onMeasure func()) *window {
	w := &window{res: make([]outcome, len(st.window)), lateNs: make([]int64, len(st.window))}
	var (
		inflight atomic.Int64
		wg       sync.WaitGroup
		faults   sync.WaitGroup
		heap     *heapSampler // started when the measured window opens
		cpu0     time.Duration
		alloc0   uint64
	)
	w.base = time.Now().Add(2 * time.Millisecond)
	if b.s.crashEvery > 0 {
		faults.Add(1)
		go func() {
			defer faults.Done()
			b.runFaults(w, st)
		}()
	}
	for i := range st.window {
		due := w.base.Add(st.window[i].due)
		sleepUntil(due)
		if heap == nil && st.window[i].due >= warmup {
			onMeasure()
			heap = startHeapSampler()
			cpu0, alloc0 = cpuTime(), totalAlloc()
		}
		w.lateNs[i] = int64(time.Since(due))
		w.res[i].due = int64(st.window[i].due)
		w.res[i].got = -1
		if inflight.Load() >= b.s.inflightCap() {
			w.refused++
			continue
		}
		if n := inflight.Add(1); n > w.inflightMax {
			w.inflightMax = n
		}
		w.res[i].sent = true
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			b.issue(w, st, i, due)
		}(i, due)
	}
	wg.Wait()
	faults.Wait()
	w.cpu = cpuTime() - cpu0
	w.allocs = totalAlloc() - alloc0
	w.heapPeak = heap.stop()
	for i, r := range w.res {
		if r.ok && st.window[i].due >= warmup {
			w.completed++
		}
	}
	return w
}

// issue runs one request to completion or failure.
func (b *testbed) issue(w *window, st *stream, i int, due time.Time) {
	o := st.window[i]
	num := len(st.preload) + i
	res := &w.res[i]
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(deadline))
	defer cancel()
	res.invoke = int64(time.Since(w.base))
	target := o.target
	backoff := retryFirst
	for {
		var n *cluster.Node
		if target >= 0 && b.reps[target].up.Load() {
			n = b.reps[target].node.Load()
		} else if l := b.leader(); l >= 0 {
			n = b.reps[l].node.Load()
		}
		var err error
		if n == nil {
			err = cluster.ErrStopped // no leader yet: a refusal
		} else if o.read {
			var v []byte
			if v, err = n.Get(ctx, o.key); err == nil {
				res.got = opOf(v)
			}
		} else {
			err = n.Put(ctx, o.key, st.value(num))
		}
		if err == nil {
			res.ack = int64(time.Since(w.base))
			res.ok = true
			return
		}
		if !retryable(err) || ctx.Err() != nil {
			res.err = err
			return
		}
		res.retries++
		target = -1
		select {
		case <-time.After(backoff):
			backoff = min(2*backoff, retryMax)
		case <-ctx.Done():
			res.err = ctx.Err()
			return
		}
	}
}

// runFaults is the leader-failover schedule: crash-stop the current
// leader firstCrash into the measured window and every crashEvery after it, restart it from its
// data directory downFor later, and time its catch-up to the applied
// index the leader had at restart. A crash is scheduled only if its
// restart and catch-up fit in the window.
func (b *testbed) runFaults(w *window, st *stream) {
	last := st.window[len(st.window)-1].due
	for at := warmup + b.s.firstCrash; at+b.s.downFor+500*time.Millisecond < last; at += b.s.crashEvery {
		time.Sleep(time.Until(w.base.Add(at)))
		l := b.leader()
		if l < 0 {
			w.errs = append(w.errs, "no leader to crash")
			continue
		}
		ev := crashEvent{at: int64(time.Since(w.base))}
		b.crash(l)
		time.Sleep(b.s.downFor)
		var target int64
		if nl := b.leader(); nl >= 0 {
			target = b.reps[nl].node.Load().Store().AppliedIndex()
		}
		restarted := time.Now()
		if err := b.startHost(l); err != nil {
			w.errs = append(w.errs, "restart: "+err.Error())
			return
		}
		node := b.reps[l].node.Load()
		for node.Store().AppliedIndex() < target && time.Since(restarted) < b.s.crashEvery {
			time.Sleep(time.Millisecond)
		}
		ev.catchupMs = float64(time.Since(restarted)) / 1e6
		w.crashes = append(w.crashes, ev)
	}
}
