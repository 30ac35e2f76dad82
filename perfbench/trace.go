package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/rql"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// tracer is the traced run's instrumentation. It wraps each layer's public
// seam from outside — the engine (embedding the concrete engine so every
// optional interface the runtime asserts still resolves), the store
// (embedding *storage.File), the transport send path and the inbound
// handler — and never touches runtime code. Counters are atomics shared by
// every replica; metrics are deltas between a snapshot at the start of the
// measured window and one at its end.
type tracer struct {
	clock time.Time

	// engine
	engCalls, engBusy, engSubmits, engSubmitted atomic.Int64
	engMsgs, engAppended, leaderChanges         atomic.Int64
	engCall, followerLag                        hist

	// transport
	sendCalls, sendNs, deliverCalls, deliverNs atomic.Int64

	// storage
	appendCalls, appendNs, appendEntries atomic.Int64
	syncCalls, syncNs                    atomic.Int64
	syncHist, snapHist, openHist         hist

	// lease / reads
	readLocal, readConfirmed atomic.Int64
	readServe                hist
	readMu                   sync.Mutex
	readSubmit               map[uint64]int64

	// Per-write stage timestamps, indexed by op number (ns since clock;
	// 0 = not seen). appendedBy is the leader that appended the write.
	appendedAt, persistedAt, committedAt []atomic.Int64
	appendedBy                           []atomic.Int32

	// terms holds each live engine's last observed term.
	terms [replicas]atomic.Uint64

	// commits collects every committed entry by log index, for the
	// post-run kvstore replay.
	commitMu sync.Mutex
	commits  []protocol.Entry
}

func newTracer(ops int) *tracer {
	return &tracer{
		clock:       time.Now(),
		readSubmit:  make(map[uint64]int64),
		appendedAt:  make([]atomic.Int64, ops),
		persistedAt: make([]atomic.Int64, ops),
		committedAt: make([]atomic.Int64, ops),
		appendedBy:  make([]atomic.Int32, ops),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.clock)) }

// writeOp returns the op number a put carries, or -1.
func (t *tracer) writeOp(cmd protocol.Command) int64 {
	if cmd.Op != protocol.OpPut {
		return -1
	}
	n := opOf(cmd.Value)
	if n < 0 || n >= int64(len(t.appendedAt)) {
		return -1
	}
	return n
}

// engineView is what the tracer reads from a wrapped engine after each
// call, on the event loop that owns it.
type engineView interface {
	IsLeader() bool
	Term() uint64
	LastIndex() int64
}

// matcher is the raftstar-family leader's per-peer replication view.
type matcher interface {
	MatchIndex(p protocol.NodeID) int64
}

// engineTrace is the per-engine state the wrappers share.
type engineTrace struct {
	t         *tracer
	id        protocol.NodeID
	wasLeader bool
}

func (et *engineTrace) submitted(cmds []protocol.Command) {
	et.t.engSubmits.Add(1)
	et.t.engSubmitted.Add(int64(len(cmds)))
}

func (et *engineTrace) readsSubmitted(cmds []protocol.Command) {
	now := et.t.now()
	et.t.readMu.Lock()
	for _, c := range cmds {
		et.t.readSubmit[c.ID] = now
	}
	et.t.readMu.Unlock()
}

func (et *engineTrace) readsServed(ids []uint64, local int) {
	if len(ids) == 0 {
		return
	}
	now := et.t.now()
	et.t.readMu.Lock()
	for _, id := range ids {
		if at, ok := et.t.readSubmit[id]; ok {
			et.t.readServe.record(now - at)
			delete(et.t.readSubmit, id)
		}
	}
	et.t.readMu.Unlock()
	et.t.readLocal.Add(int64(local))
	et.t.readConfirmed.Add(int64(len(ids) - local))
}

// after records one engine call that started at start (ns on the tracer
// clock) and returned out.
func (et *engineTrace) after(start int64, out protocol.Output, v engineView, m matcher) {
	t := et.t
	end := t.now()
	t.engCalls.Add(1)
	t.engBusy.Add(end - start)
	t.engCall.record(end - start)
	t.engMsgs.Add(int64(len(out.Msgs)))
	t.engAppended.Add(int64(len(out.AppendedEntries)))
	leader := v.IsLeader()
	if leader && !et.wasLeader {
		t.leaderChanges.Add(1)
	}
	et.wasLeader = leader
	t.terms[et.id].Store(v.Term())
	if leader {
		for _, e := range out.AppendedEntries {
			if n := t.writeOp(e.Cmd); n >= 0 && t.appendedAt[n].CompareAndSwap(0, end) {
				t.appendedBy[n].Store(int32(et.id))
			}
		}
		for _, c := range out.Commits {
			if n := t.writeOp(c.Entry.Cmd); n >= 0 && c.Reply {
				t.committedAt[n].CompareAndSwap(0, end)
			}
		}
		if m != nil {
			last := v.LastIndex()
			for p := protocol.NodeID(0); p < replicas; p++ {
				if p != et.id {
					t.followerLag.record(last - m.MatchIndex(p))
				}
			}
		}
	}
	var ids []uint64
	local := 0
	for _, r := range out.Replies {
		if r.Kind == protocol.ReplyRead && r.Err == nil {
			ids = append(ids, r.CmdID)
			if r.Client == et.id {
				local++
			}
		}
	}
	for _, rs := range out.ReadStates {
		for _, c := range rs.Cmds {
			ids = append(ids, c.ID)
		}
	}
	et.readsServed(ids, local)
	if len(out.Commits) > 0 {
		t.commitMu.Lock()
		for _, c := range out.Commits {
			i := c.Entry.Index
			for int64(len(t.commits)) <= i {
				t.commits = append(t.commits, protocol.Entry{})
			}
			t.commits[i] = c.Entry
		}
		t.commitMu.Unlock()
	}
}

// wrapEngine embeds the concrete engine raftpaxos.NewEngine built, so
// BatchSubmitter, SnapshotRestorer, PrefixTruncator, SnapshotSender,
// RestoreLog and the hard-state views resolve exactly as on the bare
// engine; only the calls the event loop makes to drive it are timed.
func (t *tracer) wrapEngine(e protocol.Engine) protocol.Engine {
	et := &engineTrace{t: t, id: e.ID()}
	switch e := e.(type) {
	case *raftstar.Engine:
		return &tracedRaftStar{Engine: e, et: et}
	case *raft.Engine:
		return &tracedRaft{Engine: e, et: et}
	case *rql.Engine:
		return &tracedRQL{Engine: e, et: et}
	}
	panic("perfbench: no traced wrapper for this engine")
}

type tracedRaftStar struct {
	*raftstar.Engine
	et *engineTrace
}

func (w *tracedRaftStar) done(start int64, out protocol.Output) protocol.Output {
	w.et.after(start, out, w.Engine, w.Engine)
	return out
}

func (w *tracedRaftStar) Tick() protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Tick())
}

func (w *tracedRaftStar) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Step(from, msg))
}

func (w *tracedRaftStar) Submit(cmd protocol.Command) protocol.Output {
	w.et.submitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.Submit(cmd))
}

func (w *tracedRaftStar) SubmitBatch(cmds []protocol.Command) protocol.Output {
	w.et.submitted(cmds)
	return w.done(w.et.t.now(), w.Engine.SubmitBatch(cmds))
}

func (w *tracedRaftStar) SubmitRead(cmd protocol.Command) protocol.Output {
	w.et.readsSubmitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.SubmitRead(cmd))
}

func (w *tracedRaftStar) SubmitReadBatch(cmds []protocol.Command) protocol.Output {
	w.et.readsSubmitted(cmds)
	return w.done(w.et.t.now(), w.Engine.SubmitReadBatch(cmds))
}

type tracedRaft struct {
	*raft.Engine
	et *engineTrace
}

func (w *tracedRaft) done(start int64, out protocol.Output) protocol.Output {
	w.et.after(start, out, w.Engine, nil) // raft exposes no MatchIndex
	return out
}

func (w *tracedRaft) Tick() protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Tick())
}

func (w *tracedRaft) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Step(from, msg))
}

func (w *tracedRaft) Submit(cmd protocol.Command) protocol.Output {
	w.et.submitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.Submit(cmd))
}

func (w *tracedRaft) SubmitBatch(cmds []protocol.Command) protocol.Output {
	w.et.submitted(cmds)
	return w.done(w.et.t.now(), w.Engine.SubmitBatch(cmds))
}

func (w *tracedRaft) SubmitRead(cmd protocol.Command) protocol.Output {
	w.et.readsSubmitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.SubmitRead(cmd))
}

func (w *tracedRaft) SubmitReadBatch(cmds []protocol.Command) protocol.Output {
	w.et.readsSubmitted(cmds)
	return w.done(w.et.t.now(), w.Engine.SubmitReadBatch(cmds))
}

// tracedRQL wraps Raft*-PQL. rql.Engine has no SubmitReadBatch, so the
// wrapper must not add one: the runtime would then take a batch path the
// bare engine does not have.
type tracedRQL struct {
	*rql.Engine
	et *engineTrace
}

type rqlView struct{ e *rql.Engine }

func (v rqlView) IsLeader() bool   { return v.e.IsLeader() }
func (v rqlView) Term() uint64     { return v.e.Term() }
func (v rqlView) LastIndex() int64 { return v.e.Inner().LastIndex() }

func (w *tracedRQL) done(start int64, out protocol.Output) protocol.Output {
	w.et.after(start, out, rqlView{w.Engine}, w.Engine.Inner())
	return out
}

func (w *tracedRQL) Tick() protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Tick())
}

func (w *tracedRQL) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	return w.done(w.et.t.now(), w.Engine.Step(from, msg))
}

func (w *tracedRQL) Submit(cmd protocol.Command) protocol.Output {
	w.et.submitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.Submit(cmd))
}

func (w *tracedRQL) SubmitBatch(cmds []protocol.Command) protocol.Output {
	w.et.submitted(cmds)
	return w.done(w.et.t.now(), w.Engine.SubmitBatch(cmds))
}

func (w *tracedRQL) SubmitRead(cmd protocol.Command) protocol.Output {
	w.et.readsSubmitted([]protocol.Command{cmd})
	return w.done(w.et.t.now(), w.Engine.SubmitRead(cmd))
}

// tracedStore embeds *storage.File, so GroupSync and SnapshotStore still
// resolve, and times the calls the persister and applier make.
type tracedStore struct {
	*storage.File
	t  *tracer
	id int32

	mu      sync.Mutex
	pending []int64 // leader-appended op numbers buffered since the last sync
}

func (t *tracer) wrapStore(id int, f *storage.File) *tracedStore {
	return &tracedStore{File: f, t: t, id: int32(id)}
}

func (s *tracedStore) staged(entries []protocol.Entry, start int64) {
	s.t.appendCalls.Add(1)
	s.t.appendNs.Add(s.t.now() - start)
	s.t.appendEntries.Add(int64(len(entries)))
	s.mu.Lock()
	for _, e := range entries {
		if n := s.t.writeOp(e.Cmd); n >= 0 && s.t.appendedBy[n].Load() == s.id {
			s.pending = append(s.pending, n)
		}
	}
	s.mu.Unlock()
}

func (s *tracedStore) synced(start int64) {
	end := s.t.now()
	s.t.syncCalls.Add(1)
	s.t.syncNs.Add(end - start)
	s.t.syncHist.record(end - start)
	s.mu.Lock()
	for _, n := range s.pending {
		s.t.persistedAt[n].CompareAndSwap(0, end)
	}
	s.pending = s.pending[:0]
	s.mu.Unlock()
}

func (s *tracedStore) Append(entries []protocol.Entry) error {
	start := s.t.now()
	err := s.File.Append(entries)
	s.staged(entries, start)
	s.synced(start)
	return err
}

func (s *tracedStore) AppendBuffered(entries []protocol.Entry) error {
	start := s.t.now()
	err := s.File.AppendBuffered(entries)
	s.staged(entries, start)
	return err
}

func (s *tracedStore) Sync() error {
	start := s.t.now()
	err := s.File.Sync()
	s.synced(start)
	return err
}

func (s *tracedStore) SyncBatch(hs storage.HardState, save bool) error {
	start := s.t.now()
	err := s.File.SyncBatch(hs, save)
	s.synced(start)
	return err
}

func (s *tracedStore) SaveSnapshot(snap storage.Snapshot) error {
	start := s.t.now()
	err := s.File.SaveSnapshot(snap)
	s.t.snapHist.record(s.t.now() - start)
	return err
}

// tracedSend times the transport send path. It serves both the group
// transport a Host speaks and the plain Transport a lone Node speaks.
type tracedSend struct {
	t    *tracer
	next transport.GroupTransport
}

func (s tracedSend) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	start := s.t.now()
	s.next.SendGroup(group, from, to, msg)
	s.t.sendCalls.Add(1)
	s.t.sendNs.Add(s.t.now() - start)
}

func (s tracedSend) Send(from, to protocol.NodeID, msg protocol.Message) {
	s.SendGroup(0, from, to, msg)
}

func (s tracedSend) Close() error { return nil }

// wrapDeliver times the inbound hook (Host.HandleMessage or
// Node.HandleMessage behind it).
func (t *tracer) wrapDeliver(h transport.GroupHandler) transport.GroupHandler {
	return func(group uint64, from protocol.NodeID, msg protocol.Message) {
		start := t.now()
		h(group, from, msg)
		t.deliverCalls.Add(1)
		t.deliverNs.Add(t.now() - start)
	}
}

// traceSnap is the tracer's counters at one instant.
type traceSnap struct {
	at                                           time.Time
	engCalls, engBusy, engSubmits, engSubmitted  int64
	engMsgs, engAppended, leaderChanges, maxTerm int64
	sendCalls, sendNs, deliverCalls, deliverNs   int64
	appendCalls, appendNs, appendEntries         int64
	syncCalls, syncNs, readLocal, readConfirmed  int64
	engCall, followerLag, syncHist, snapHist     []int64
	readServe                                    []int64
}

func (t *tracer) snap() traceSnap {
	s := traceSnap{
		at:       time.Now(),
		engCalls: t.engCalls.Load(), engBusy: t.engBusy.Load(),
		engSubmits: t.engSubmits.Load(), engSubmitted: t.engSubmitted.Load(),
		engMsgs: t.engMsgs.Load(), engAppended: t.engAppended.Load(),
		leaderChanges: t.leaderChanges.Load(),
		sendCalls:     t.sendCalls.Load(), sendNs: t.sendNs.Load(),
		deliverCalls: t.deliverCalls.Load(), deliverNs: t.deliverNs.Load(),
		appendCalls: t.appendCalls.Load(), appendNs: t.appendNs.Load(),
		appendEntries: t.appendEntries.Load(),
		syncCalls:     t.syncCalls.Load(), syncNs: t.syncNs.Load(),
		readLocal: t.readLocal.Load(), readConfirmed: t.readConfirmed.Load(),
		engCall: t.engCall.snap(), followerLag: t.followerLag.snap(),
		syncHist: t.syncHist.snap(), snapHist: t.snapHist.snap(),
		readServe: t.readServe.snap(),
	}
	for i := range t.terms {
		if v := int64(t.terms[i].Load()); v > s.maxTerm {
			s.maxTerm = v
		}
	}
	return s
}

// committedLog returns the committed entries in index order (index 1 up),
// as far as they are contiguous.
func (t *tracer) committedLog() []protocol.Entry {
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	var out []protocol.Entry
	for i := 1; i < len(t.commits); i++ {
		if t.commits[i].Index != int64(i) {
			break
		}
		out = append(out, t.commits[i])
	}
	return out
}

// stageStats summarizes one per-write stage over window ops: durations in
// microseconds between two stamps (both must be present).
func stageStats(from, to func(i int) int64, lo, hi int) (p50, p99 float64) {
	var d []float64
	for i := lo; i < hi; i++ {
		a, b := from(i), to(i)
		if a > 0 && b > 0 && b >= a {
			d = append(d, float64(b-a)/1e3)
		}
	}
	sort.Float64s(d)
	if len(d) == 0 {
		return 0, 0
	}
	return percentile(d, 0.5), percentile(d, 0.99)
}
