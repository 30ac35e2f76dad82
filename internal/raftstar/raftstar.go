// Package raftstar implements Raft*, the Raft variant introduced by the
// paper (Figure 2, including the blue additions) for which a refinement
// mapping to MultiPaxos exists. It differs from standard Raft in exactly
// two ways:
//
//  1. A granting voter ships the log entries beyond the candidate's last
//     index in its requestVoteOK; the new leader extends its own log with
//     the safe value (highest ballot) for each such index instead of later
//     erasing follower suffixes, and an acceptor rejects an append that
//     would leave its log longer than the leader's.
//  2. Every entry carries a ballot in addition to its term; any accepted
//     append re-stamps the ballots of all entries it covers with the
//     current term, restoring the MultiPaxos invariant that acceptance
//     overwrites the instance's ballot. As a consequence the leader may
//     commit any quorum-replicated entry directly, without Raft's §5.4.2
//     current-term restriction.
//
// The code says the same: the engine is raftcore's, shared with package
// raft, and the two deltas are raftcore/raftstar.go. This package keeps
// Raft*'s configuration and its own wire message types.
package raftstar

import (
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftcore"
)

// Raft*'s wire messages (field order frozen; see raftcore/messages.go).
type (
	// MsgVoteReq is Raft*'s requestVote (Paxos prepare / msg1a).
	MsgVoteReq = raftcore.StarVoteReq
	// MsgVoteResp is Raft*'s requestVoteOK (Paxos prepareOK / msg1b).
	MsgVoteResp = raftcore.StarVoteResp
	// MsgAppendReq is Raft*'s append (Paxos accept / msg2a).
	MsgAppendReq = raftcore.StarAppendReq
	// MsgAppendResp is Raft*'s appendOK (Paxos acceptOK / msg2b).
	MsgAppendResp = raftcore.StarAppendResp
	// MsgForward carries client commands from a follower to the leader.
	MsgForward = raftcore.StarForward
)

// Config configures a Raft* replica.
type Config = raftcore.Config

// Hooks are the extension points Raft* offers ported optimizations.
type Hooks = raftcore.Hooks

// Engine is a single Raft* replica.
type Engine struct {
	*raftcore.Engine
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Raft* replica.
func New(cfg Config) *Engine {
	return &Engine{raftcore.NewRaftStar(cfg)}
}
