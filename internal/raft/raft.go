// Package raft implements standard Raft per Figure 2 of the paper (black
// text only), following Ongaro & Ousterhout. It is the evaluation baseline
// and the protocol that provably does NOT refine MultiPaxos: a follower
// erases extraneous log entries to match the leader (a state transition
// MultiPaxos forbids), and entry terms are never overwritten, which forces
// the §5.4.2 restriction that a leader only commits entries of its own
// term by counting.
//
// The engine is raftcore's, run with Raft's rules (raftcore/raft.go); this
// package keeps Raft's configuration and its own wire message types.
package raft

import (
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftcore"
)

// Raft's wire messages (field order frozen; see raftcore/messages.go).
type (
	// MsgVoteReq is Raft's RequestVote RPC.
	MsgVoteReq = raftcore.RaftVoteReq
	// MsgVoteResp is Raft's RequestVote response.
	MsgVoteResp = raftcore.RaftVoteResp
	// MsgAppendReq is Raft's AppendEntries RPC.
	MsgAppendReq = raftcore.RaftAppendReq
	// MsgAppendResp is Raft's AppendEntries response.
	MsgAppendResp = raftcore.RaftAppendResp
	// MsgForward carries client commands from a follower to the leader.
	MsgForward = raftcore.RaftForward
)

// Config configures a Raft replica. The fields mean what they mean on
// raftcore.Config; Raft takes no hooks.
type Config struct {
	ID    protocol.NodeID
	Peers []protocol.NodeID

	ElectionTicks  int
	HeartbeatTicks int
	MaxBatch       int
	MaxInflight    int
	Seed           int64
	// Passive disables the election timer (for pinning a benchmark leader).
	Passive bool
	// ReadIndex enables the fast linearizable read path; off, reads
	// replicate through the log like writes (Section 4.4 of the paper —
	// the baseline the simulated figures measure).
	ReadIndex bool
	// UnsafeSkipReadQuorum serves ReadIndex reads without the leadership
	// confirmation round. Testing only; never enable in a deployment.
	UnsafeSkipReadQuorum bool
	// FastPath enables the one-RTT Fast Paxos write path.
	FastPath bool
}

// Engine is a single Raft replica.
type Engine struct {
	*raftcore.Engine
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Raft replica.
func New(cfg Config) *Engine {
	return &Engine{raftcore.NewRaft(raftcore.Config{
		ID: cfg.ID, Peers: cfg.Peers,
		ElectionTicks: cfg.ElectionTicks, HeartbeatTicks: cfg.HeartbeatTicks,
		MaxBatch: cfg.MaxBatch, MaxInflight: cfg.MaxInflight, Seed: cfg.Seed,
		Passive: cfg.Passive, ReadIndex: cfg.ReadIndex,
		UnsafeSkipReadQuorum: cfg.UnsafeSkipReadQuorum, FastPath: cfg.FastPath,
	})}
}
