package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// event is one request of the history the checker judges. Times are on
// one clock; an unacknowledged request has ok == false and may have taken
// effect at any time after invoke.
type event struct {
	key    string
	write  bool
	op     int64 // the write's op number, or the op number a read returned (-1: no value)
	invoke int64
	ack    int64
	ok     bool
}

// maxViolations bounds how many violations a check reports.
const maxViolations = 10

// checkHistory judges a history against the final key→op state of the
// store. It flags:
//   - a lost write: a key whose final value is missing, unknown, or
//     comes from a write that an acknowledged write invoked after its
//     acknowledgement should have superseded;
//   - a stale read: a read that returned no value, or a value older than
//     a write acknowledged before the read was invoked, or a value no
//     write to that key had been invoked to produce by the time the read
//     returned.
//
// Real-time order is the only order used, so concurrent writes may land
// either way; every flag is a linearizability violation.
func checkHistory(events []event, final map[string]int64) []string {
	var v []string
	flag := func(format string, args ...any) {
		if len(v) < maxViolations {
			v = append(v, fmt.Sprintf(format, args...))
		}
	}
	writes := map[int64]*event{}
	// Acknowledged writes per key sorted by ack, with the running maximum
	// of their invoke times.
	type ackd struct{ ack, maxInvoke int64 }
	byKey := map[string][]ackd{}
	for i := range events {
		e := &events[i]
		if !e.write {
			continue
		}
		writes[e.op] = e
		if e.ok {
			byKey[e.key] = append(byKey[e.key], ackd{ack: e.ack, maxInvoke: e.invoke})
		}
	}
	for _, ws := range byKey {
		sort.Slice(ws, func(i, j int) bool { return ws[i].ack < ws[j].ack })
		for i := 1; i < len(ws); i++ {
			if ws[i-1].maxInvoke > ws[i].maxInvoke {
				ws[i].maxInvoke = ws[i-1].maxInvoke
			}
		}
	}
	ackOf := func(w *event) int64 {
		if w.ok {
			return w.ack
		}
		return math.MaxInt64
	}

	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ws := byKey[key]
		f, ok := final[key]
		if !ok || f < 0 {
			flag("lost write: key %q has acknowledged writes but no final value", key)
			continue
		}
		w := writes[f]
		if w == nil || w.key != key {
			flag("lost write: key %q holds op %d, which no write to it produced", key, f)
			continue
		}
		if latest := ws[len(ws)-1].maxInvoke; latest > ackOf(w) {
			flag("lost write: key %q holds op %d (acked at %d), but a write to it invoked at %d was acknowledged",
				key, f, w.ack, latest)
		}
	}
	for key, f := range final {
		if _, ok := byKey[key]; !ok && f >= 0 {
			if w := writes[f]; w == nil || w.key != key {
				flag("lost write: key %q holds op %d, which no write to it produced", key, f)
			}
		}
	}

	for i := range events {
		r := &events[i]
		if r.write || !r.ok {
			continue
		}
		var w *event
		if r.op >= 0 {
			w = writes[r.op]
			if w == nil || w.key != r.key || w.invoke > r.ack {
				flag("stale read: read of %q at [%d,%d] returned op %d, which no earlier write to it produced",
					r.key, r.invoke, r.ack, r.op)
				continue
			}
		}
		ws := byKey[r.key]
		j := sort.Search(len(ws), func(i int) bool { return ws[i].ack >= r.invoke }) - 1
		if j < 0 {
			continue // nothing was acknowledged before the read began
		}
		if w == nil {
			flag("stale read: read of %q at [%d,%d] returned no value after a write was acknowledged",
				r.key, r.invoke, r.ack)
		} else if ws[j].maxInvoke > ackOf(w) {
			flag("stale read: read of %q at [%d,%d] returned op %d (acked at %d), older than a write invoked at %d and acknowledged before the read",
				r.key, r.invoke, r.ack, r.op, w.ack, ws[j].maxInvoke)
		}
	}
	return v
}

// checkReplicas requires every replica's state-machine image to be
// byte-identical.
func checkReplicas(images [][]byte) []string {
	var v []string
	for i := 1; i < len(images); i++ {
		if !bytes.Equal(images[0], images[i]) {
			v = append(v, fmt.Sprintf("replica divergence: replica %d's kvstore snapshot differs from replica 0's (%d vs %d bytes)",
				i, len(images[i]), len(images[0])))
		}
	}
	return v
}

// history turns the stream and the window's outcomes into checker events.
// Preload writes were all acknowledged during set-up, before the window.
func history(st *stream, w *window) []event {
	ev := make([]event, 0, st.total())
	for i, o := range st.preload {
		ev = append(ev, event{key: o.key, write: true, op: int64(i), invoke: -2, ack: -1, ok: true})
	}
	for i, o := range st.window {
		r := w.res[i]
		e := event{key: o.key, write: !o.read, invoke: r.invoke, ack: r.ack, ok: r.ok}
		if o.read {
			e.op = r.got
		} else {
			e.op = int64(len(st.preload) + i)
			if !r.sent {
				continue // refused by the generator: never reached the cluster
			}
		}
		ev = append(ev, e)
	}
	return ev
}
