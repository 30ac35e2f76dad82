package raftcore

import "raftpaxos/internal/protocol"

// The engine steps one neutral form per message kind; each protocol keeps
// its own wire set below, converted at the Step boundary (stepRaftMsg,
// stepStarMsg) and on the way out (the wrap* helpers). Raft*'s set is a
// superset of Raft's: its vote reply adds LastIndex and its append reply
// adds Holders, fields Raft's wire never carries.
type (
	voteReq struct {
		Term      uint64
		LastIndex int64
		LastTerm  uint64
		Commit    int64
	}
	voteResp struct {
		Term      uint64
		Granted   bool
		Extra     []protocol.Entry
		LastIndex int64
	}
	appendReq struct {
		Term      uint64
		PrevIndex int64
		PrevTerm  uint64
		Entries   []protocol.Entry
		Commit    int64
		ReadCtx   uint64
		PrevID    uint64
	}
	appendResp struct {
		Term      uint64
		Ok        bool
		LastIndex int64
		Holders   []protocol.NodeID
		ReadCtx   uint64
	}
)

// entriesWireSize sums the simulated wire size of a batch of entries.
func entriesWireSize(ents []protocol.Entry) int {
	n := 0
	for i := range ents {
		n += 24 + ents[i].Cmd.WireSize()
	}
	return n
}

// cmdsWireSize sums the simulated wire size of a batch of commands.
func cmdsWireSize(cmds []protocol.Command) int {
	n := 0
	for i := range cmds {
		n += cmds[i].WireSize()
	}
	return n
}

// Wire stability: the message types below travel the live wire through
// internal/wire; exported field ORDER is the encoded layout and is frozen.
// Append new fields at the end and bump the transport's wireVersion.

// RaftVoteReq is Raft's RequestVote RPC (raft.MsgVoteReq).
type RaftVoteReq struct {
	Term      uint64
	LastIndex int64
	LastTerm  uint64
	// Commit is the candidate's commit index: with the fast write path on,
	// a granting voter reports its log above it (RaftVoteResp.Extra) so the
	// new leader can recover fast-accepted suffixes (protocol.ChooseFast).
	Commit int64
}

// WireSize implements protocol.Message.
func (m *RaftVoteReq) WireSize() int { return 32 }

// RaftVoteResp is Raft's RequestVote response (raft.MsgVoteResp). Unlike
// Raft*'s, it carries no log entries — except with the fast write path
// on, where Extra reports the voter's entries above the candidate's
// commit index (speculative fast-accepted entries carry Bal 0) for the
// election recovery rule.
type RaftVoteResp struct {
	Term    uint64
	Granted bool
	Extra   []protocol.Entry
}

// WireSize implements protocol.Message.
func (m *RaftVoteResp) WireSize() int { return 9 + entriesWireSize(m.Extra) }

// CmdCount implements simnet.CmdCounter.
func (m *RaftVoteResp) CmdCount() int { return len(m.Extra) }

// RequiresBarrier implements protocol.BarrierMessage: a vote grant
// promises the recorded term and vote are durable.
func (m *RaftVoteResp) RequiresBarrier() {}

// RaftAppendReq is Raft's AppendEntries RPC (raft.MsgAppendReq).
type RaftAppendReq struct {
	Term      uint64
	PrevIndex int64
	PrevTerm  uint64
	Entries   []protocol.Entry
	Commit    int64
	// ReadCtx is the highest pending ReadIndex confirmation context at the
	// leader (0 = none); the follower echoes it in its response, and a
	// quorum of echoes proves the leader's term was still current after
	// the reads arrived (see protocol.ReadTracker).
	ReadCtx uint64
	// PrevID is the command ID of the sender's entry at PrevIndex (0 =
	// unknown/none). Only consulted when the receiver's entry at PrevIndex
	// is speculative (fast-accepted, Bal 0): two speculative entries can
	// share (index, term) while holding different commands, which the
	// PrevTerm check alone cannot see.
	PrevID uint64
}

// WireSize implements protocol.Message.
func (m *RaftAppendReq) WireSize() int { return 48 + entriesWireSize(m.Entries) }

// CmdCount implements simnet.CmdCounter.
func (m *RaftAppendReq) CmdCount() int { return len(m.Entries) }

// RaftAppendResp is Raft's AppendEntries response (raft.MsgAppendResp).
type RaftAppendResp struct {
	Term      uint64
	Ok        bool
	LastIndex int64
	// ReadCtx echoes the request's ReadIndex confirmation context. A
	// reject still echoes: even a log mismatch acknowledges the sender's
	// leadership at this term, which is all the read path needs.
	ReadCtx uint64
}

// WireSize implements protocol.Message.
func (m *RaftAppendResp) WireSize() int { return 32 }

// RequiresBarrier implements protocol.BarrierMessage: an append ack
// promises the accepted entries are durable.
func (m *RaftAppendResp) RequiresBarrier() {}

// RaftForward carries client commands from a follower to the leader
// (etcd-style batched forwarding; raft.MsgForward).
type RaftForward struct {
	Cmds []protocol.Command
}

// WireSize implements protocol.Message.
func (m *RaftForward) WireSize() int { return 8 + cmdsWireSize(m.Cmds) }

// CmdCount implements simnet.CmdCounter.
func (m *RaftForward) CmdCount() int { return len(m.Cmds) }

// StarVoteReq is Raft*'s requestVote (raftstar.MsgVoteReq; maps to Paxos
// prepare / msg1a).
type StarVoteReq struct {
	Term      uint64
	LastIndex int64
	LastTerm  uint64
	// Commit is the candidate's commit index: with the fast write path on,
	// a granting voter reports its log above it (not just above LastIndex)
	// so the new leader can run the fast-suffix recovery rule
	// (protocol.ChooseFast) over speculative entries the up-to-date check
	// never sees.
	Commit int64
}

// WireSize implements protocol.Message.
func (m *StarVoteReq) WireSize() int { return 32 }

// StarVoteResp is Raft*'s requestVoteOK (raftstar.MsgVoteResp; maps to
// Paxos prepareOK / msg1b). Unlike Raft, a granting voter ships the
// entries beyond the candidate's last index so the new leader can extend
// its log with safe values instead of erasing follower suffixes.
type StarVoteResp struct {
	Term    uint64
	Granted bool
	// Extra are the voter's entries with Index > candidate's LastIndex.
	Extra []protocol.Entry
	// LastIndex is the voter's last log index (leader uses it to seed
	// replication state).
	LastIndex int64
}

// WireSize implements protocol.Message.
func (m *StarVoteResp) WireSize() int { return 16 + entriesWireSize(m.Extra) }

// RequiresBarrier implements protocol.BarrierMessage: a vote grant
// promises the recorded term, vote, and shipped extras are durable.
func (m *StarVoteResp) RequiresBarrier() {}

// CmdCount implements simnet.CmdCounter.
func (m *StarVoteResp) CmdCount() int { return len(m.Extra) }

// StarAppendReq is Raft*'s append (raftstar.MsgAppendReq; maps to Paxos
// accept / msg2a). On arrival the acceptor re-stamps the ballot of every
// entry up to the append's end with the sender's term — the Raft* change
// that restores the Paxos invariant that accepting overwrites the
// instance ballot.
type StarAppendReq struct {
	Term      uint64
	PrevIndex int64
	PrevTerm  uint64
	Entries   []protocol.Entry
	Commit    int64
	// ReadCtx is the highest pending ReadIndex confirmation context at the
	// leader (0 = none); the follower echoes it in its response (see
	// protocol.ReadTracker).
	ReadCtx uint64
	// PrevID is the command ID of the sender's entry at PrevIndex (0 =
	// unknown/none); see RaftAppendReq.PrevID.
	PrevID uint64
}

// WireSize implements protocol.Message.
func (m *StarAppendReq) WireSize() int { return 48 + entriesWireSize(m.Entries) }

// CmdCount implements simnet.CmdCounter.
func (m *StarAppendReq) CmdCount() int { return len(m.Entries) }

// StarAppendResp is Raft*'s appendOK (raftstar.MsgAppendResp; maps to
// Paxos acceptOK / msg2b).
type StarAppendResp struct {
	Term uint64
	Ok   bool
	// LastIndex is the responder's last log index after the append (on Ok)
	// or its current last index (on reject, as a retry hint).
	LastIndex int64
	// Holders lists replicas currently holding a valid lease granted by the
	// responder. Only used by the Raft*-PQL extension; empty otherwise.
	Holders []protocol.NodeID
	// ReadCtx echoes the request's ReadIndex confirmation context; a reject
	// still echoes (see RaftAppendResp.ReadCtx).
	ReadCtx uint64
}

// WireSize implements protocol.Message.
func (m *StarAppendResp) WireSize() int { return 32 + 4*len(m.Holders) }

// RequiresBarrier implements protocol.BarrierMessage: an append ack
// promises the accepted (re-stamped) entries are durable.
func (m *StarAppendResp) RequiresBarrier() {}

// StarForward carries client commands from a follower to the leader,
// batched as in etcd (raftstar.MsgForward).
type StarForward struct {
	Cmds []protocol.Command
}

// WireSize implements protocol.Message.
func (m *StarForward) WireSize() int { return 8 + cmdsWireSize(m.Cmds) }

// CmdCount implements simnet.CmdCounter.
func (m *StarForward) CmdCount() int { return len(m.Cmds) }

// stepRaftMsg unwraps Raft's wire set and ignores any other message.
func (e *Engine) stepRaftMsg(from protocol.NodeID, msg protocol.Message, out *protocol.Output) {
	switch m := msg.(type) {
	case *RaftVoteReq:
		e.stepVoteReq(from, (*voteReq)(m), out)
	case *RaftVoteResp:
		e.stepVoteResp(from, &voteResp{Term: m.Term, Granted: m.Granted, Extra: m.Extra}, out)
	case *RaftAppendReq:
		e.stepAppendReq(from, (*appendReq)(m), out)
	case *RaftAppendResp:
		e.stepAppendResp(from, &appendResp{Term: m.Term, Ok: m.Ok, LastIndex: m.LastIndex, ReadCtx: m.ReadCtx}, out)
	case *RaftForward:
		out.Merge(e.SubmitBatch(m.Cmds))
	}
}

// stepStarMsg unwraps Raft*'s wire set and ignores any other message.
func (e *Engine) stepStarMsg(from protocol.NodeID, msg protocol.Message, out *protocol.Output) {
	switch m := msg.(type) {
	case *StarVoteReq:
		e.stepVoteReq(from, (*voteReq)(m), out)
	case *StarVoteResp:
		e.stepVoteResp(from, (*voteResp)(m), out)
	case *StarAppendReq:
		e.stepAppendReq(from, (*appendReq)(m), out)
	case *StarAppendResp:
		e.stepAppendResp(from, (*appendResp)(m), out)
	case *StarForward:
		out.Merge(e.SubmitBatch(m.Cmds))
	}
}

func (e *Engine) wrapVoteReq(m voteReq) protocol.Message {
	if e.star {
		w := StarVoteReq(m)
		return &w
	}
	w := RaftVoteReq(m)
	return &w
}

func (e *Engine) wrapVoteResp(m voteResp) protocol.Message {
	if e.star {
		w := StarVoteResp(m)
		return &w
	}
	return &RaftVoteResp{Term: m.Term, Granted: m.Granted, Extra: m.Extra}
}

func (e *Engine) wrapAppendReq(m appendReq) protocol.Message {
	if e.star {
		w := StarAppendReq(m)
		return &w
	}
	w := RaftAppendReq(m)
	return &w
}

func (e *Engine) wrapAppendResp(m appendResp) protocol.Message {
	if e.star {
		w := StarAppendResp(m)
		return &w
	}
	return &RaftAppendResp{Term: m.Term, Ok: m.Ok, LastIndex: m.LastIndex, ReadCtx: m.ReadCtx}
}

func (e *Engine) wrapForward(cmds []protocol.Command) protocol.Message {
	if e.star {
		return &StarForward{Cmds: cmds}
	}
	return &RaftForward{Cmds: cmds}
}
