package main

import (
	"strings"
	"testing"
)

// Hand-built histories: the checker must flag a lost write and a stale
// read, and must accept the orderings linearizability allows.

func put(key string, op, invoke, ack int64) event {
	return event{key: key, write: true, op: op, invoke: invoke, ack: ack, ok: true}
}

func get(key string, got, invoke, ack int64) event {
	return event{key: key, op: got, invoke: invoke, ack: ack, ok: true}
}

func wantFlag(t *testing.T, v []string, kind string) {
	t.Helper()
	for _, s := range v {
		if strings.HasPrefix(s, kind) {
			return
		}
	}
	t.Fatalf("checker did not flag a %s; got %q", kind, v)
}

func TestCheckerFlagsLostWrite(t *testing.T) {
	h := []event{put("a", 1, 0, 10), put("a", 2, 20, 30)}
	// Op 2 was invoked after op 1 was acknowledged and was itself
	// acknowledged, yet the store still holds op 1.
	wantFlag(t, checkHistory(h, map[string]int64{"a": 1}), "lost write")
	// The key vanished altogether.
	wantFlag(t, checkHistory(h, map[string]int64{}), "lost write")
	// A value no write to the key produced.
	wantFlag(t, checkHistory(h, map[string]int64{"a": 7}), "lost write")
}

func TestCheckerFlagsStaleRead(t *testing.T) {
	h := []event{
		put("a", 1, 0, 10), put("a", 2, 20, 30),
		get("a", 1, 40, 50), // op 2 was acknowledged before this read began
	}
	wantFlag(t, checkHistory(h, map[string]int64{"a": 2}), "stale read")

	h = []event{put("a", 1, 0, 10), get("a", -1, 20, 25)}
	wantFlag(t, checkHistory(h, map[string]int64{"a": 1}), "stale read")

	// A read may not return a write that had not begun when it returned.
	h = []event{put("a", 1, 0, 10), get("a", 2, 12, 14), put("a", 2, 20, 30)}
	wantFlag(t, checkHistory(h, map[string]int64{"a": 2}), "stale read")
}

func TestCheckerAcceptsLinearizableHistories(t *testing.T) {
	h := []event{
		put("a", 1, 0, 10),
		put("a", 2, 5, 15), // concurrent with op 1: either may win
		get("a", 1, 12, 20),
		get("a", 2, 13, 21),
		get("b", -1, 0, 3), // nothing written to b yet
		// An unacknowledged write may take effect at any time after it
		// began, so its value may be read and may survive.
		{key: "c", write: true, op: 3, invoke: 30},
		get("c", 3, 40, 41),
	}
	for _, final := range []map[string]int64{{"a": 1, "c": 3}, {"a": 2, "c": 3}, {"a": 2}} {
		if v := checkHistory(h, final); len(v) != 0 {
			t.Fatalf("final %v: unexpected violations %q", final, v)
		}
	}
}

func TestCheckReplicasFlagsDivergence(t *testing.T) {
	if v := checkReplicas([][]byte{{1, 2}, {1, 2}, {1, 2}}); len(v) != 0 {
		t.Fatalf("identical images flagged: %q", v)
	}
	if v := checkReplicas([][]byte{{1, 2}, {1, 2}, {1, 3}}); len(v) != 1 {
		t.Fatalf("divergent image not flagged once: %q", v)
	}
}
