// Package raftcore is the one engine behind packages raft and raftstar.
// The paper's thesis is that Raft* is Raft plus two deltas:
//
//  1. a granting voter ships its log suffix and the new leader adopts the
//     safe (highest-ballot) values instead of later erasing follower
//     suffixes, and
//  2. every accept re-stamps the ballots of the entries it covers, which
//     lifts Raft's §5.4.2 current-term commit restriction.
//
// This file holds everything the two protocols share — election timing
// and voting, the replication pipeline, ReadIndex, snapshot transfer, the
// fast write path, batching and the commit→apply plumbing. The places
// where they differ are the rule seam below (see "The rule seam"); raft.go
// holds Raft's side of it and raftstar.go Raft*'s, the black and blue text
// of the paper's Figure 2. An optimization ported here is therefore ported
// to both protocols at once.
//
// The engine is a pure, deterministic, tick-driven state machine so the
// same code runs under the discrete-event simulator and live transports.
package raftcore

import (
	"math/rand"
	"sort"

	"raftpaxos/internal/protocol"
)

type role uint8

const (
	follower role = iota + 1
	candidate
	leader
)

// Hooks are optional extension points used to port Paxos optimizations
// onto Raft* without modifying the base protocol's state — the engine-level
// analogue of the paper's non-mutating optimizations: every hook reads
// Raft* state and maintains only new state of its own.
type Hooks struct {
	// LocalHolders is attached to append responses (Raft*-PQL: leases
	// granted by this replica).
	LocalHolders func() []protocol.NodeID
	// OnAppendResp observes successful append acknowledgements at the
	// leader (Raft*-PQL: collect reported lease holders).
	OnAppendResp func(from protocol.NodeID, lastIndex int64, holders []protocol.NodeID)
	// GateCommit clamps the leader's proposed commit index (Raft*-PQL:
	// wait for every lease holder to acknowledge).
	GateCommit func(proposed int64) int64
	// OnAccept observes entries accepted into the local log, both on the
	// leader when appending and on followers when receiving appends
	// (lease conflict tracking; Mencius skip tags must hook both sides —
	// the paper's example of a multi-action Phase2b correspondence).
	OnAccept func(ents []protocol.Entry)
}

// Config configures a replica of either protocol.
type Config struct {
	ID    protocol.NodeID
	Peers []protocol.NodeID // all replicas, including ID

	// ElectionTicks is the base election timeout; the effective timeout is
	// randomized in [ElectionTicks, 2*ElectionTicks).
	ElectionTicks int
	// HeartbeatTicks is the leader's heartbeat period.
	HeartbeatTicks int
	// MaxBatch caps entries per append message (0 = 1024).
	MaxBatch int
	// MaxInflight caps pipelined appends per follower (0 = 16).
	MaxInflight int
	// Seed feeds the deterministic election jitter RNG.
	Seed int64
	// Passive disables the election timer (the replica still votes and
	// accepts appends). Benchmarks use it to pin the leader at one site.
	Passive bool
	// ReadIndex enables the fast linearizable read path: the leader
	// serves reads from the state machine after one leadership
	// confirmation round, with no log append and no fsync, and followers
	// forward reads to it. Off, reads replicate through the log like
	// writes (Section 4.4 of the paper — the baseline the simulated
	// figures measure).
	ReadIndex bool
	// UnsafeSkipReadQuorum serves ReadIndex reads without the leadership
	// confirmation round. Testing only: it lets the linearizability
	// checker's sabotage regression prove the checker catches the stale
	// reads a deposed leader then serves. Never enable in a deployment.
	UnsafeSkipReadQuorum bool
	// FastPath enables the one-RTT Fast Paxos write path: a follower
	// broadcasts submissions to every replica, which accept speculatively
	// (entry Bal 0) and ack everyone; ⌈3n/4⌉ matching acks including the
	// leader's commit the command without the forward-to-leader round trip.
	// Collisions fall back to the classic path automatically because the
	// leader treats every fast accept as a forwarded submission.
	FastPath bool

	Hooks Hooks
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTicks <= 0 {
		out.ElectionTicks = 10
	}
	if out.HeartbeatTicks <= 0 {
		out.HeartbeatTicks = 1
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 1024
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 16
	}
	return out
}

// Engine is a single replica running Raft's rules or Raft*'s.
type Engine struct {
	cfg  Config
	star bool // Raft*'s rules (raftstar.go) instead of Raft's (raft.go)
	rng  *rand.Rand

	term     uint64
	votedFor protocol.NodeID
	role     role
	leader   protocol.NodeID

	// log is the uncompacted tail in global index space: the prefix at or
	// below log.Base() has been folded into a snapshot and truncated away
	// (TruncatePrefix), bounding replica memory by the tail length.
	log    protocol.Log
	commit int64

	votes map[protocol.NodeID]bool

	// Leader state.
	next     map[protocol.NodeID]int64
	match    map[protocol.NodeID]int64
	inflight map[protocol.NodeID]int

	// provider supplies the durable snapshot image a leader ships to a
	// peer stranded below the compaction base; xfers tracks one chunked
	// transfer per such peer, snapAsm reassembles an inbound one.
	provider protocol.SnapshotProvider
	xfers    map[protocol.NodeID]*protocol.SnapshotXfer
	snapAsm  protocol.SnapshotAssembly

	elapsed   int
	timeout   int
	hbElapsed int

	// Commands buffered while no leader is known.
	pending []protocol.Command
	// ReadIndex state: reads tracks confirmation rounds at the leader;
	// readBarrier is the leader's last log index once its election step
	// (Raft's no-op barrier, Raft*'s safe-value adoption) is in the log —
	// entries a predecessor committed are only provably reflected in our
	// commit index once that log commits at our term, so a read's index is
	// clamped up to it; pendingReads buffers reads submitted while no
	// leader is known.
	reads        protocol.ReadTracker
	readBarrier  int64
	pendingReads []protocol.Command

	// Fast write path state (nil/empty unless cfg.FastPath): fast counts
	// acks per (slot, cmd); fastMine marks commands this replica
	// fast-submitted (it answers its own client); fastRemote marks
	// commands the leader adopted from others' fast accepts (the submitter
	// replies, not the arbiter); fastSeen records the slot each fast
	// command occupies locally, making replayed MsgFastAccepts idempotent;
	// fastDone marks slots committed through a fast quorum (stats);
	// fastVotes holds granting voters' log reports for election recovery.
	fast       *protocol.FastTracker
	fastMine   map[uint64]bool
	fastRemote map[uint64]bool
	fastSeen   map[uint64]int64
	fastDone   map[int64]bool
	fastVotes  map[protocol.NodeID][]protocol.Entry
	stats      protocol.FastStats

	// Raft* state (raftstar.go; always zero under Raft's rules): the
	// uniform log ballot, the speculative watermark, and a candidate's
	// safe value per index above its log.
	logBal   uint64
	specFrom int64
	extras   map[int64]protocol.Entry
	extraMax int64
}

var _ protocol.Engine = (*Engine)(nil)

// NewRaft builds a replica running standard Raft (raft.go).
func NewRaft(cfg Config) *Engine { return newEngine(cfg, false) }

// NewRaftStar builds a replica running Raft* (raftstar.go).
func NewRaftStar(cfg Config) *Engine { return newEngine(cfg, true) }

func newEngine(cfg Config, star bool) *Engine {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:      c,
		star:     star,
		rng:      rand.New(rand.NewSource(c.Seed ^ int64(c.ID)<<17)),
		votedFor: protocol.None,
		role:     follower,
		leader:   protocol.None,
	}
	if c.FastPath {
		e.fast = protocol.NewFastTracker(len(c.Peers))
		e.fastMine = make(map[uint64]bool)
		e.fastRemote = make(map[uint64]bool)
		e.fastSeen = make(map[uint64]int64)
		e.fastDone = make(map[int64]bool)
	}
	e.resetTimeout()
	return e
}

// The rule seam. Every protocol rule where Raft and Raft* differ goes
// through one of the methods below; raft.go and raftstar.go hold the two
// sides. The rest of Raft*'s second delta is ballot bookkeeping the shared
// code reports to raftstar.go (noteBallot, markSpeculative,
// leaveSpeculation), which does nothing under Raft's rules. The seam
// branches on a bool rather than calling through an interface: static
// calls keep each entry point's Output on the stack.

// voteExtra is the log report a granting voter attaches to its vote.
func (e *Engine) voteExtra(m *voteReq) []protocol.Entry {
	if e.star {
		return e.starVoteExtra(m)
	}
	return e.raftVoteExtra(m)
}

// openTally starts a candidate's count. Raft* also collects a safe value
// for every index above its log; Raft needs nothing beyond the votes.
func (e *Engine) openTally() {
	if e.star {
		e.extras = make(map[int64]protocol.Entry)
		e.extraMax = e.LastIndex()
	}
}

// tallyVote folds a granted vote's log report into the candidate's count
// (Raft* keeps the highest-ballot value per index).
func (e *Engine) tallyVote(extra []protocol.Entry) {
	if e.star {
		e.tallySafeValues(extra)
	}
}

// adoptLog is the new leader's log step before it takes office: Raft
// recovers fast-accepted suffixes, Raft* adopts safe values and
// re-proposes its whole log.
func (e *Engine) adoptLog(out *protocol.Output) {
	if e.star {
		e.starAdoptLog(out)
	} else if e.fast != nil {
		e.raftRecoverFast(out)
	}
}

// openTerm is the new leader's first act in office: Raft appends its
// no-op barrier, Raft* re-sends the whole re-proposed log.
func (e *Engine) openTerm(out *protocol.Output) {
	if e.star {
		e.starOpenTerm()
	} else {
		e.appendLocal(protocol.Command{Op: protocol.OpNop}, out)
	}
}

// accept applies an append whose PrevIndex matched: Raft erases the
// conflicting suffix, Raft* overwrites and re-stamps (and refuses to
// shorten its log). It reports whether the append was accepted and the
// last index the reply acknowledges (or hints, on a reject).
func (e *Engine) accept(m *appendReq, out *protocol.Output) (bool, int64) {
	if e.star {
		return e.starAccept(m, out)
	}
	return e.raftAccept(m, out)
}

// rejected handles an append reject at the leader before it backs up:
// Raft* first extends its log to cover a longer follower log.
func (e *Engine) rejected(followerLast int64, out *protocol.Output) {
	if e.star {
		e.coverFollowerLog(followerLast, out)
	}
}

// commitBound clamps the quorum-matched index to what the commit rule
// allows: §5.4.2's current-term walk-back under Raft, the GateCommit hook
// under Raft*.
func (e *Engine) commitBound(quorumMatched int64) int64 {
	if e.star {
		return e.starCommitBound(quorumMatched)
	}
	return e.raftCommitBound(quorumMatched)
}

// ballot is the ballot an entry carries when it leaves the engine: Raft
// keeps ballots per entry, Raft* stamps the uniform log ballot.
func (e *Engine) ballot(ent protocol.Entry) uint64 {
	if e.star {
		return e.balAt(ent.Index)
	}
	return ent.Bal
}

// FastStats implements protocol.FastStatser.
func (e *Engine) FastStats() protocol.FastStats { return e.stats }

// ID implements protocol.Engine.
func (e *Engine) ID() protocol.NodeID { return e.cfg.ID }

// Leader implements protocol.Engine.
func (e *Engine) Leader() protocol.NodeID { return e.leader }

// IsLeader implements protocol.Engine.
func (e *Engine) IsLeader() bool { return e.role == leader }

// Term returns the current term (ballot).
func (e *Engine) Term() uint64 { return e.term }

// VotedFor returns the replica voted for in the current term (None when
// no vote was cast); live drivers persist it alongside the term.
func (e *Engine) VotedFor() protocol.NodeID { return e.votedFor }

// RestoreHardState primes term and vote from durable storage before the
// engine processes any input, so a restarted replica cannot cast a
// second vote in a term it already voted in.
func (e *Engine) RestoreHardState(term uint64, votedFor protocol.NodeID) {
	if term > e.term {
		e.term = term
		e.votedFor = votedFor
	}
}

// SetSnapshotProvider implements protocol.SnapshotSender: the driver
// wires its snapshot store so a leader can ship images to peers that
// fell behind the compaction base.
func (e *Engine) SetSnapshotProvider(p protocol.SnapshotProvider) { e.provider = p }

// RestoreSnapshot primes the engine at a snapshot boundary before
// RestoreLog delivers the tail: the log starts at index, whose entry had
// term, and everything at or below it is committed (it was applied before
// it was snapshotted).
func (e *Engine) RestoreSnapshot(index int64, term uint64) {
	if e.log.LastIndex() > 0 {
		return
	}
	e.log.Restore(index, term, nil)
	if index > e.commit {
		e.commit = index
	}
	e.noteBallot(term)
}

// RestoreLog adopts a durably logged tail after a restart, before the
// engine processes any input; the tail continues wherever RestoreSnapshot
// anchored the log (index 1 on a snapshot-free store). Entries are
// persisted at accept time, so the tail normally extends past the saved
// commit index: the suffix comes back accepted-but-uncommitted (it may
// even conflict with the next leader's log and be overwritten), which is
// exactly what lets a quorum-acked suffix survive a full-cluster crash.
// Commit is clamped to the restored length.
func (e *Engine) RestoreLog(ents []protocol.Entry, commit int64) {
	if e.log.Len() > 0 || len(ents) == 0 {
		return
	}
	if ents[0].Index != e.log.LastIndex()+1 {
		return // tail does not meet the snapshot boundary: driver bug
	}
	for _, ent := range ents {
		e.log.Append(ent)
	}
	if commit > e.log.LastIndex() {
		commit = e.log.LastIndex()
	}
	if commit > e.commit {
		e.commit = commit
	}
	// Raft* rebuilds its uniform ballot from the stamps its entries left
	// with; a zero-ballot tail is a speculative fast suffix that survived
	// the restart and stays speculative until a classic append ratifies it.
	for _, ent := range ents {
		e.noteBallot(ent.Bal)
		if e.fast != nil && ent.Bal == 0 && ent.Term > 0 && ent.Index > e.commit {
			e.markSpeculative(ent.Index)
		}
	}
}

// TruncatePrefix implements protocol.PrefixTruncator: drop in-memory
// entries at or below through (clamped to the commit index — uncommitted
// entries may still be rewritten and must stay). Index arithmetic stays in
// global log-index space throughout.
func (e *Engine) TruncatePrefix(through int64) {
	if through > e.commit {
		through = e.commit
	}
	e.log.TruncatePrefix(through)
}

// LogLen returns the number of entries held in memory (the uncompacted
// tail) — the quantity snapshots exist to bound.
func (e *Engine) LogLen() int { return e.log.Len() }

// FirstIndex returns the lowest log index still held in memory.
func (e *Engine) FirstIndex() int64 { return e.log.FirstIndex() }

// CommitIndex returns the highest committed log index.
func (e *Engine) CommitIndex() int64 { return e.commit }

// LastIndex returns the last log index.
func (e *Engine) LastIndex() int64 { return e.log.LastIndex() }

// EntryAt returns the entry at index i (1-based) and whether it exists;
// compacted indexes report false.
func (e *Engine) EntryAt(i int64) (protocol.Entry, bool) {
	ent, ok := e.log.At(i)
	if !ok {
		return protocol.Entry{}, false
	}
	ent.Bal = e.ballot(ent)
	return ent, true
}

// MatchIndex returns the leader's view of how much of the log peer p has
// acknowledged this term (0 when not leader).
func (e *Engine) MatchIndex(p protocol.NodeID) int64 {
	if e.role != leader {
		return 0
	}
	return e.match[p]
}

// RecheckCommit re-evaluates the commit rule (Raft*-PQL calls it when a
// lease expires, which may unblock writes waiting on a dead holder).
func (e *Engine) RecheckCommit() protocol.Output {
	var out protocol.Output
	e.maybeCommit(&out)
	return out
}

func (e *Engine) termAt(i int64) uint64 { return e.log.TermAt(i) }

func (e *Engine) quorum() int { return protocol.Quorum(len(e.cfg.Peers)) }

func (e *Engine) resetTimeout() {
	e.elapsed = 0
	e.timeout = e.cfg.ElectionTicks + e.rng.Intn(e.cfg.ElectionTicks)
}

// send queues msg to every other replica.
func (e *Engine) send(msg protocol.Message, out *protocol.Output) {
	for _, p := range e.cfg.Peers {
		if p != e.cfg.ID {
			out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: msg})
		}
	}
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	if e.role == leader {
		e.hbElapsed++
		if e.hbElapsed >= e.cfg.HeartbeatTicks {
			e.hbElapsed = 0
			e.broadcastAppend(&out, true)
		}
		return out
	}
	if e.cfg.Passive {
		return out
	}
	e.elapsed++
	if e.elapsed >= e.timeout {
		e.campaign(&out)
	}
	return out
}

// Campaign forces an immediate election (used to bootstrap a preferred
// leader in benchmarks and tests).
func (e *Engine) Campaign() protocol.Output {
	var out protocol.Output
	e.campaign(&out)
	return out
}

func (e *Engine) campaign(out *protocol.Output) {
	e.term++
	e.role = candidate
	// Pending confirmation rounds die with the leadership we just gave
	// up: echoes are ignored while Candidate, and winning re-arms the
	// tracker fresh — without this, forced re-election strands the reads.
	e.reads.FailAll(out)
	e.leader = protocol.None
	e.votedFor = e.cfg.ID
	e.votes = map[protocol.NodeID]bool{e.cfg.ID: true}
	e.openTally()
	e.resetTimeout()
	out.StateChanged = true
	if e.fast != nil {
		e.fastVotes = make(map[protocol.NodeID][]protocol.Entry)
	}
	e.send(e.wrapVoteReq(voteReq{Term: e.term, LastIndex: e.LastIndex(), LastTerm: e.termAt(e.LastIndex()), Commit: e.commit}), out)
	if len(e.cfg.Peers) == 1 {
		e.becomeLeader(out)
	}
}

func (e *Engine) becomeFollower(term uint64, lead protocol.NodeID, out *protocol.Output) {
	if term > e.term {
		e.term = term
		e.votedFor = protocol.None
		out.StateChanged = true
	}
	e.role = follower
	e.xfers = nil // outbound transfers are leader state
	// Reads awaiting confirmation die with the leadership: fail them fast
	// so clients retry at the new leader instead of hanging (no-op unless
	// this replica was leading).
	e.reads.FailAll(out)
	if lead != protocol.None {
		e.leader = lead
		e.flushPending(out)
	}
	e.resetTimeout()
}

// Step implements protocol.Engine.
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	var out protocol.Output
	switch m := msg.(type) {
	case *protocol.MsgInstallSnapshot:
		e.stepInstallSnapshot(from, m, &out)
	case *protocol.MsgInstallSnapshotResp:
		e.stepInstallSnapshotResp(from, m, &out)
	case *protocol.MsgReadForward:
		out.Merge(e.SubmitReadBatch(m.Cmds))
	case *protocol.MsgFastAccept:
		e.stepFastAccept(from, m, &out)
	case *protocol.MsgFastAck:
		e.stepFastAck(from, m, &out)
	default:
		if e.star {
			e.stepStarMsg(from, msg, &out)
		} else {
			e.stepRaftMsg(from, msg, &out)
		}
	}
	return out
}

func (e *Engine) stepVoteReq(from protocol.NodeID, m *voteReq, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
	}
	upToDate := m.LastTerm > e.termAt(e.LastIndex()) ||
		(m.LastTerm == e.termAt(e.LastIndex()) && m.LastIndex >= e.LastIndex())
	grant := m.Term == e.term &&
		(e.votedFor == protocol.None || e.votedFor == from) &&
		e.role != leader && upToDate
	resp := voteResp{Term: e.term, LastIndex: e.LastIndex()}
	if grant {
		e.votedFor = from
		e.resetTimeout()
		resp.Granted = true
		out.StateChanged = true
		resp.Extra = e.voteExtra(m)
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: e.wrapVoteResp(resp)})
}

func (e *Engine) stepVoteResp(from protocol.NodeID, m *voteResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != candidate || m.Term != e.term || !m.Granted {
		return
	}
	e.votes[from] = true
	e.tallyVote(m.Extra)
	if e.fastVotes != nil {
		e.fastVotes[from] = m.Extra
	}
	if len(e.votes) >= e.quorum() {
		e.becomeLeader(out)
	}
}

func (e *Engine) becomeLeader(out *protocol.Output) {
	e.role = leader
	e.leader = e.cfg.ID
	e.adoptLog(out)
	if e.fast != nil {
		e.fast.Reset(e.term)
	}
	e.votes = nil
	e.next = make(map[protocol.NodeID]int64, len(e.cfg.Peers))
	e.match = make(map[protocol.NodeID]int64, len(e.cfg.Peers))
	e.inflight = make(map[protocol.NodeID]int, len(e.cfg.Peers))
	e.xfers = make(map[protocol.NodeID]*protocol.SnapshotXfer)
	for _, p := range e.cfg.Peers {
		e.next[p] = e.LastIndex() + 1
		e.match[p] = 0
	}
	e.match[e.cfg.ID] = e.LastIndex()
	e.hbElapsed = 0
	out.StateChanged = true
	e.openTerm(out)
	e.readBarrier = e.LastIndex()
	e.reads.Reset(e.quorum(), e.cfg.UnsafeSkipReadQuorum)
	// The first broadcast doubles as the leadership announcement.
	e.broadcastAppend(out, true)
	e.flushPending(out)
}

// Submit implements protocol.Engine.
func (e *Engine) Submit(cmd protocol.Command) protocol.Output {
	return e.SubmitBatch([]protocol.Command{cmd})
}

// SubmitBatch implements protocol.BatchSubmitter: the leader appends the
// whole batch locally and replicates it in one append broadcast — the
// MultiPaxos batched-accept optimization, which ports to the whole family
// unchanged.
func (e *Engine) SubmitBatch(cmds []protocol.Command) protocol.Output {
	var out protocol.Output
	if len(cmds) == 0 {
		return out
	}
	switch {
	case e.role == leader:
		for _, cmd := range cmds {
			e.appendLocal(cmd, &out)
		}
		e.broadcastAppend(&out, false)
	case e.fast != nil && e.leader != protocol.None:
		e.fastSubmit(cmds, &out)
	case e.leader != protocol.None:
		// etcd-style follower forwarding.
		out.Msgs = append(out.Msgs, protocol.Envelope{
			From: e.cfg.ID, To: e.leader,
			Msg: e.wrapForward(append([]protocol.Command(nil), cmds...)),
		})
	default:
		for _, cmd := range cmds {
			if len(e.pending) < 4096 {
				e.pending = append(e.pending, cmd)
				continue
			}
			out.Replies = append(out.Replies, protocol.ClientReply{
				Kind: protocol.ReplyKindFor(cmd), CmdID: cmd.ID, Client: cmd.Client, Err: protocol.ErrNotLeader,
			})
		}
	}
	return out
}

// SubmitRead implements protocol.Engine: with ReadIndex enabled, the
// leader serves the read from the state machine after one leadership
// confirmation round — no log append, no fsync; otherwise reads are
// strongly consistent by running through the log exactly like writes.
func (e *Engine) SubmitRead(cmd protocol.Command) protocol.Output {
	return e.SubmitReadBatch([]protocol.Command{cmd})
}

// SubmitReadBatch implements protocol.ReadBatchSubmitter: the whole batch
// shares one read index and one confirmation round.
func (e *Engine) SubmitReadBatch(cmds []protocol.Command) protocol.Output {
	var out protocol.Output
	if len(cmds) == 0 {
		return out
	}
	for i := range cmds {
		cmds[i].Op = protocol.OpGet
	}
	if !e.cfg.ReadIndex {
		return e.SubmitBatch(cmds)
	}
	if e.role == leader {
		e.addReads(cmds, &out)
	} else {
		protocol.RouteReads(e.cfg.ID, e.leader, &e.pendingReads, cmds, &out)
	}
	return out
}

// addReads opens a ReadIndex confirmation round at the leader: the read
// index is the commit index clamped up to the election barrier, and a
// heartbeat broadcast carrying the batch's ctx starts the confirmation
// immediately instead of waiting out the heartbeat interval.
func (e *Engine) addReads(cmds []protocol.Command, out *protocol.Output) {
	idx := e.commit
	if e.readBarrier > idx {
		idx = e.readBarrier
	}
	e.reads.Add(cmds, idx, out)
	if e.reads.Pending() > 0 {
		e.broadcastAppend(out, true)
	}
}

func (e *Engine) flushPending(out *protocol.Output) {
	if reads := e.pendingReads; len(reads) > 0 {
		e.pendingReads = nil
		out.Merge(e.SubmitReadBatch(reads))
	}
	if len(e.pending) == 0 {
		return
	}
	cmds := e.pending
	e.pending = nil
	if e.role == leader {
		for _, c := range cmds {
			e.appendLocal(c, out)
		}
		e.broadcastAppend(out, false)
		return
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.leader, Msg: e.wrapForward(cmds)})
}

func (e *Engine) appendLocal(cmd protocol.Command, out *protocol.Output) {
	ent := protocol.Entry{Index: e.LastIndex() + 1, Term: e.term, Bal: e.term, Cmd: cmd}
	e.log.Append(ent)
	e.match[e.cfg.ID] = e.LastIndex()
	// The leader is part of the commit quorum: its own entry must be
	// durable before it can count itself, so the local append rides the
	// same persist-before-ack barrier as a follower's accept.
	out.AppendedEntries = append(out.AppendedEntries, ent)
	out.StateChanged = true
	if h := e.cfg.Hooks.OnAccept; h != nil {
		h([]protocol.Entry{ent})
	}
	if len(e.cfg.Peers) == 1 {
		e.maybeCommit(out)
	}
}

func (e *Engine) broadcastAppend(out *protocol.Output, heartbeat bool) {
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		e.sendAppend(p, out, heartbeat)
	}
}

// sendAppend ships log[next..] to p, respecting batch and inflight limits.
// When heartbeat is set, an empty append is sent even if nothing is pending.
func (e *Engine) sendAppend(p protocol.NodeID, out *protocol.Output, heartbeat bool) {
	next := e.next[p]
	if next > e.LastIndex() && !heartbeat {
		return
	}
	if e.inflight[p] >= e.cfg.MaxInflight && !heartbeat {
		return // pipelining cap; the ack will trigger the next batch
	}
	if next < e.log.FirstIndex() {
		// The compacted prefix cannot be resent entry-by-entry; start at
		// the held tail (catching a peer up past the snapshot needs a
		// snapshot transfer, not an append).
		next = e.log.FirstIndex()
	}
	end := min(e.LastIndex(), next-1+int64(e.cfg.MaxBatch))
	var ents []protocol.Entry
	if end >= next {
		ents = e.log.Slice(next, end)
	}
	req := appendReq{
		Term:      e.term,
		PrevIndex: next - 1,
		PrevTerm:  e.termAt(next - 1),
		Entries:   ents,
		Commit:    e.commit,
		ReadCtx:   e.reads.MaxCtx(),
	}
	if e.fast != nil {
		if prev, ok := e.log.At(next - 1); ok {
			req.PrevID = prev.Cmd.ID
		}
	}
	// The ctx is now in flight: later reads must open a fresh one (an
	// echo of this ctx only proves leadership up to this send).
	e.reads.MarkSent()
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: e.wrapAppendReq(req)})
	if end >= next {
		e.next[p] = end + 1 // optimistic pipelining
		e.inflight[p]++
	}
}

func (e *Engine) stepAppendReq(from protocol.NodeID, m *appendReq, out *protocol.Output) {
	resp := appendResp{Term: e.term, LastIndex: e.LastIndex()}
	if m.Term < e.term {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: e.wrapAppendResp(resp)})
		return
	}
	e.becomeFollower(m.Term, from, out)
	resp.Term = e.term
	// Echo the read confirmation ctx whenever we answer at the sender's
	// term — even a log-mismatch reject acknowledges its leadership,
	// which is all the ReadIndex round needs.
	resp.ReadCtx = m.ReadCtx

	switch {
	case m.PrevIndex > e.LastIndex():
		// Missing entries before PrevIndex: hint our last index.
		resp.LastIndex = e.LastIndex()
	case m.PrevIndex >= e.log.Base() && e.termAt(m.PrevIndex) != m.PrevTerm:
		// Conflicting predecessor: hint one before PrevIndex. A PrevIndex
		// below our compaction base cannot conflict — everything at or
		// below the base is committed, hence identical on any leader.
		resp.LastIndex = m.PrevIndex - 1
	case e.fast != nil && m.PrevID != 0 && e.specConflict(m.PrevIndex, m.PrevID):
		// Our entry at PrevIndex is speculative and names a different
		// command: two fast accepts collided at the same (index, term),
		// which the PrevTerm check alone cannot distinguish. Back up so
		// the leader resends from the divergence point.
		resp.LastIndex = m.PrevIndex - 1
	default:
		resp.Ok, resp.LastIndex = e.accept(m, out)
		if !resp.Ok {
			break
		}
		if h := e.cfg.Hooks.OnAccept; h != nil && len(m.Entries) > 0 {
			h(m.Entries)
		}
		out.StateChanged = true
		if h := e.cfg.Hooks.LocalHolders; h != nil {
			resp.Holders = h()
		}
		if c := min(m.Commit, resp.LastIndex); c > e.commit {
			e.advanceCommit(c, out)
		}
		e.tryFastCommit(out)
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: e.wrapAppendResp(resp)})
}

func (e *Engine) stepAppendResp(from protocol.NodeID, m *appendResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != leader || m.Term != e.term {
		return
	}
	if m.ReadCtx > 0 {
		// The follower processed a message we sent while still leading:
		// that confirms every read batch at or below the echoed ctx.
		e.reads.Ack(from, m.ReadCtx, out)
	}
	if e.inflight[from] > 0 {
		e.inflight[from]--
	}
	if !m.Ok {
		e.rejected(m.LastIndex, out)
		e.next[from] = max(min(m.LastIndex+1, e.LastIndex()+1), 1)
		if e.next[from] < e.log.FirstIndex() {
			// The follower needs entries below our compaction base, which
			// log replay can never provide: ship the snapshot image instead.
			// (Without a provider this degrades to heartbeat-cadence probes.)
			e.beginSnapshotTransfer(from, out)
			return
		}
		e.sendAppend(from, out, false)
		return
	}
	if m.LastIndex > e.match[from] {
		e.match[from] = m.LastIndex
	}
	if e.next[from] <= e.match[from] {
		e.next[from] = e.match[from] + 1
	}
	if h := e.cfg.Hooks.OnAppendResp; h != nil {
		h(from, m.LastIndex, m.Holders)
	}
	e.maybeCommit(out)
	// Continue pipelining if the follower is still behind.
	if e.next[from] <= e.LastIndex() {
		e.sendAppend(from, out, false)
	}
}

// beginSnapshotTransfer starts (or nudges) the chunked shipment of the
// latest durable snapshot to p, whose next index fell below the held
// tail. Chunks are ack-paced — one in flight, advanced per response — so
// heartbeats on the same per-peer stream are never head-of-line blocked
// behind a multi-megabyte image.
func (e *Engine) beginSnapshotTransfer(p protocol.NodeID, out *protocol.Output) {
	if x, ok := e.xfers[p]; ok {
		// Already transferring: re-send the current chunk only after a
		// full heartbeat-cadence interval of silence (chunk or ack lost).
		if x.Retry() {
			if chunk := x.Chunk(e.term); chunk != nil {
				out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
			}
		}
		return
	}
	if e.provider == nil {
		return // no image source: heartbeat probing is all we can do
	}
	img, ok := e.provider.LatestSnapshotImage()
	if !ok || img.Index+1 < e.log.FirstIndex() {
		// No durable image, or it predates our held tail: the peer could
		// not resume replay above it, so shipping it would not help.
		return
	}
	x := &protocol.SnapshotXfer{Img: img}
	e.xfers[p] = x
	if chunk := x.Chunk(e.term); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
	}
}

// stepInstallSnapshot receives one chunk of a leader's snapshot,
// assembling the image and adopting it when complete: the log re-anchors
// at the image boundary and the driver is told (Output.InstalledSnapshot)
// to persist it and restore the state machine, after which replication
// resumes from the snapshot index.
func (e *Engine) stepInstallSnapshot(from protocol.NodeID, m *protocol.MsgInstallSnapshot, out *protocol.Output) {
	resp := &protocol.MsgInstallSnapshotResp{Term: e.term, Index: m.Index}
	if m.Term < e.term {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
		return
	}
	e.becomeFollower(m.Term, from, out)
	resp.Term = e.term
	if m.Index <= e.commit {
		// Already covered locally (duplicate transfer or a stale chunk):
		// nothing to install; the ack lets the leader resume appends.
		e.snapAsm.Reset()
		resp.Installed = true
		resp.NextOffset = m.Offset + int64(len(m.Data))
	} else {
		img, done, next := e.snapAsm.Accept(m)
		if next < 0 {
			// A better transfer is in progress: no ack, so this sender's
			// damped retries cannot clobber the winning image's progress.
			return
		}
		resp.NextOffset = next
		if done {
			e.installSnapshot(img, out)
			resp.Installed = true
		}
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
}

// installSnapshot adopts a fully assembled image: everything at or below
// its index is chosen and lives in the image, so the in-memory log
// re-anchors there and the driver persists the image before applying
// anything above it. A held suffix beyond the image survives only when
// its entry at the boundary agrees with the image's term (etcd-raft's
// rule) — keeping a conflicting suffix would also record the conflicting
// local term as the base term, and every resumed append at
// PrevIndex=img.Index would then be rejected forever.
func (e *Engine) installSnapshot(img protocol.SnapshotImage, out *protocol.Output) {
	if img.Index <= e.commit {
		return
	}
	if ent, ok := e.log.At(img.Index); ok && ent.Term == img.Term && img.Index < e.log.LastIndex() {
		e.log.TruncatePrefix(img.Index)
	} else {
		e.log.Restore(img.Index, img.Term, nil)
	}
	e.commit = img.Index
	e.noteBallot(img.Term)
	e.leaveSpeculation(e.commit)
	out.StateChanged = true
	out.InstalledSnapshot = &img
}

// stepInstallSnapshotResp paces an outbound transfer: each ack releases
// the next chunk, and the final Installed ack resets the follower's
// replication state to the snapshot boundary so pipelining resumes
// immediately instead of stalling until the next heartbeat probe.
func (e *Engine) stepInstallSnapshotResp(from protocol.NodeID, m *protocol.MsgInstallSnapshotResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != leader || m.Term != e.term {
		return
	}
	x := e.xfers[from]
	if x == nil || x.Img.Index != m.Index {
		return // ack from an older transfer
	}
	if m.Installed {
		delete(e.xfers, from)
		if m.Index > e.match[from] {
			e.match[from] = m.Index
		}
		e.next[from] = e.match[from] + 1
		e.inflight[from] = 0
		e.maybeCommit(out)
		if e.next[from] <= e.LastIndex() {
			e.sendAppend(from, out, false)
		}
		return
	}
	x.Ack(m.NextOffset)
	if chunk := x.Chunk(e.term); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: chunk})
	} else {
		delete(e.xfers, from) // receiver ran past the image end: abandon
	}
}

// maybeCommit advances the leader's commit index to the quorum-replicated
// watermark, as far as the commit rule allows.
func (e *Engine) maybeCommit(out *protocol.Output) {
	if e.role != leader {
		return
	}
	matches := make([]int64, 0, len(e.cfg.Peers))
	for _, p := range e.cfg.Peers {
		matches = append(matches, e.match[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	if to := e.commitBound(matches[e.quorum()-1]); to > e.commit {
		e.advanceCommit(to, out)
	}
}

func (e *Engine) advanceCommit(to int64, out *protocol.Output) {
	for i := e.commit + 1; i <= to; i++ {
		ent, _ := e.log.At(i)
		ent.Bal = e.ballot(ent)
		// Reply routing with the fast path on: the submitter answers for its
		// own fast commands (it holds the client connection and observes the
		// quorum or the classic fallback directly); the leader stays quiet
		// for fast commands it adopted from others, and answers for
		// everything else as usual.
		reply := e.role == leader && ent.Cmd.Client != protocol.None
		if e.fast != nil {
			id := ent.Cmd.ID
			switch {
			case e.fastMine[id]:
				reply = ent.Cmd.Client != protocol.None
				if e.fastDone[i] {
					e.stats.FastCommits++
				} else {
					e.stats.ClassicFallbacks++
				}
			case e.fastRemote[id]:
				reply = false
			}
			delete(e.fastMine, id)
			delete(e.fastRemote, id)
			delete(e.fastSeen, id)
			delete(e.fastDone, i)
		}
		out.Commits = append(out.Commits, protocol.CommitInfo{Entry: ent, Reply: reply})
	}
	e.commit = to
	if e.fast != nil {
		// Committed slots are chosen and leave speculation by definition.
		e.leaveSpeculation(to)
		e.fast.Forget(to)
	}
}

// fastSubmit runs the one-RTT write path as a submitter: append the batch
// speculatively (ballot 0 — no leader has accepted it) at our own log end,
// broadcast the commands to every replica (the leader treats the broadcast
// as a forwarded submission, making the classic path the automatic
// fallback and the collision arbiter), and ack everyone so any replica —
// this one above all — can observe the fast quorum. The entries ride the
// persist barrier like any accepted entry: our own ack counts toward the
// fast quorum, so our copy must be durable first.
func (e *Engine) fastSubmit(cmds []protocol.Command, out *protocol.Output) {
	base := e.LastIndex() + 1
	ids := make([]uint64, len(cmds))
	for i, cmd := range cmds {
		ent := protocol.Entry{Index: base + int64(i), Term: e.term, Bal: 0, Cmd: cmd}
		e.log.Append(ent)
		out.AppendedEntries = append(out.AppendedEntries, ent)
		ids[i] = cmd.ID
		e.fastMine[cmd.ID] = true
		e.fastSeen[cmd.ID] = ent.Index
	}
	e.markSpeculative(base)
	out.StateChanged = true
	e.send(&protocol.MsgFastAccept{Cmds: append([]protocol.Command(nil), cmds...)}, out)
	e.fastAck(base, ids, out)
}

// stepFastAccept accepts a submitter's broadcast. The leader runs its
// classic path on the commands (arbitration and fallback in one move); a
// follower appends them speculatively at its own log end. Replays never
// duplicate entries: a command already held is only re-acked, and only if
// its recorded slot still holds it — acking a slot we no longer hold
// would poison the quorum count.
func (e *Engine) stepFastAccept(from protocol.NodeID, m *protocol.MsgFastAccept, out *protocol.Output) {
	if e.fast == nil {
		return
	}
	var fresh []protocol.Command
	for _, cmd := range m.Cmds {
		if slot, seen := e.fastSeen[cmd.ID]; seen {
			if ent, ok := e.log.At(slot); ok && ent.Cmd.ID == cmd.ID {
				e.fastAck(slot, []uint64{cmd.ID}, out)
			}
			continue
		}
		fresh = append(fresh, cmd)
	}
	if len(fresh) == 0 {
		return
	}
	base := e.LastIndex() + 1
	ids := make([]uint64, len(fresh))
	if e.role == leader {
		for i, cmd := range fresh {
			e.appendLocal(cmd, out)
			ids[i] = cmd.ID
			e.fastSeen[cmd.ID] = base + int64(i)
			e.fastRemote[cmd.ID] = true
		}
		e.broadcastAppend(out, false)
	} else {
		if e.term == 0 {
			return // no term yet: a fast round has no leader to arbitrate it
		}
		for i, cmd := range fresh {
			ent := protocol.Entry{Index: base + int64(i), Term: e.term, Bal: 0, Cmd: cmd}
			e.log.Append(ent)
			out.AppendedEntries = append(out.AppendedEntries, ent)
			ids[i] = cmd.ID
			e.fastSeen[cmd.ID] = ent.Index
		}
		e.markSpeculative(base)
		out.StateChanged = true
	}
	e.fastAck(base, ids, out)
}

// fastAck broadcasts this replica's fast ack for ids at the contiguous
// slots base, base+1, ... and records it in the local tracker. MsgFastAck
// is a BarrierMessage: the persist pipeline holds it until the entries it
// covers are durable, exactly like a classic append ack.
func (e *Engine) fastAck(base int64, ids []uint64, out *protocol.Output) {
	e.send(&protocol.MsgFastAck{Term: e.term, Base: base, IDs: ids, Leader: e.role == leader}, out)
	e.fast.Ack(e.cfg.ID, e.term, base, ids, e.role == leader)
	e.tryFastCommit(out)
}

// stepFastAck records a peer's fast ack and checks for a fast commit. At
// the leader it doubles as conflict detection: a peer acking a different
// command at a slot we hold means its speculative suffix diverged, so
// replication backs up to the divergence point to repair it.
func (e *Engine) stepFastAck(from protocol.NodeID, m *protocol.MsgFastAck, out *protocol.Output) {
	if e.fast == nil {
		return
	}
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
	}
	e.fast.Ack(from, m.Term, m.Base, m.IDs, m.Leader)
	if e.role == leader && m.Term == e.term {
		clamped := false
		for i, id := range m.IDs {
			slot := m.Base + int64(i)
			if ent, ok := e.log.At(slot); ok && ent.Cmd.ID != id {
				e.stats.Conflicts++
				if e.next[from] > slot && slot >= e.log.FirstIndex() {
					e.next[from] = slot
					clamped = true
				}
			}
		}
		if clamped {
			e.sendAppend(from, out, false)
		}
	}
	e.tryFastCommit(out)
}

// tryFastCommit advances the commit index through contiguously
// fast-confirmed slots: a slot commits the moment a fast quorum —
// leader included — acked the command our own log holds there, at the
// current term. The leader's mandatory participation is what makes this
// safe: its classic copy of the slot can never name a different command
// afterwards, so the classic path can only re-confirm the choice.
func (e *Engine) tryFastCommit(out *protocol.Output) {
	if e.fast == nil || e.fast.Term() != e.term {
		return
	}
	for {
		slot := e.commit + 1
		ent, ok := e.log.At(slot)
		if !ok || !e.fast.Confirmed(slot, ent.Cmd.ID) {
			return
		}
		e.fastDone[slot] = true
		e.advanceCommit(slot, out)
		out.StateChanged = true
	}
}

// routeLost re-routes fast submissions of our own that lost their log
// position through the classic path, so the commands still commit.
func (e *Engine) routeLost(lost []protocol.Command, out *protocol.Output) {
	if len(lost) == 0 {
		return
	}
	if e.role != leader && e.leader != protocol.None {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.leader, Msg: e.wrapForward(lost)})
		return
	}
	for _, cmd := range lost {
		if len(e.pending) < 4096 {
			e.pending = append(e.pending, cmd)
		}
	}
}

// specConflict reports whether our entry at idx names a command other
// than id, the leader's copy. Speculative entries make this check
// essential — they are not unique per (index, term), so the PrevTerm
// check alone cannot see the divergence — but it guards classic entries
// too: a mismatch there means our line diverged from the leader's and
// backing up to overwrite is always the safe answer.
func (e *Engine) specConflict(idx int64, id uint64) bool {
	ent, ok := e.log.At(idx)
	return ok && ent.Cmd.ID != id
}

// fastReports gathers the vote quorum's reports for slot — our own entry
// (held reports whether we have one) plus each granting voter's copy —
// for protocol.ChooseFast.
func (e *Engine) fastReports(slot int64) (reports []protocol.FastReport, own protocol.Entry, held bool) {
	own, held = e.log.At(slot)
	if held {
		reports = append(reports, protocol.FastReport{Bal: e.ballot(own), Cmd: own.Cmd})
	}
	for _, ents := range e.fastVotes {
		for i := range ents {
			if ents[i].Index == slot {
				reports = append(reports, protocol.FastReport{Bal: ents[i].Bal, Cmd: ents[i].Cmd})
				break
			}
		}
	}
	return reports, own, held
}
