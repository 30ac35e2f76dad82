package raftcore

import "raftpaxos/internal/protocol"

// Raft*'s side of the rule seam: the paper's Figure 2 including the blue
// additions, for which a refinement mapping to MultiPaxos exists.
//
//  1. A granting voter ships the log entries beyond the candidate's last
//     index (Figure 2a lines 14-15); the new leader extends its own log
//     with the safe value (highest ballot) for each such index instead of
//     later erasing follower suffixes (lines 22-27), and an acceptor
//     rejects an append that would leave its log longer than the leader's
//     (Figure 2b line 16).
//  2. Every entry carries a ballot in addition to its term; any accepted
//     append re-stamps the ballots of all entries it covers with the
//     current term (Figure 2b lines 6-7), restoring the MultiPaxos
//     invariant that acceptance overwrites the instance's ballot. The
//     leader may therefore commit any quorum-replicated entry directly,
//     without Raft's §5.4.2 current-term restriction.
//
// Ballot representation. An accept re-stamps every covered entry, so the
// ballots of the log are always uniform: the engine tracks that one value
// (logBal) instead of re-stamping O(len(log)) entries per append, and
// stamps it onto entries as they leave the engine (balAt). The fast path
// amends this with specFrom: speculative (fast-accepted) entries always
// form a contiguous tail — fast appends land at the log end and any
// accepted classic append covers the whole classic log (never-shorten
// rule) — so entries at or above specFrom carry ballot 0 while everything
// below keeps logBal; specFrom 0 means no speculation.

// balAt returns the emission ballot for the entry at index i: 0 while it
// is speculative, the uniform log ballot otherwise.
func (e *Engine) balAt(i int64) uint64 {
	if e.specFrom > 0 && i >= e.specFrom {
		return 0
	}
	return e.logBal
}

// noteBallot raises the uniform log ballot to b: a restored or installed
// prefix was accepted at b. Raft keeps ballots per entry and ignores it.
func (e *Engine) noteBallot(b uint64) {
	if e.star && b > e.logBal {
		e.logBal = b
	}
}

// markSpeculative records that the entries from base on were fast-accepted
// and carry no ballot yet, unless a speculative tail already starts lower.
func (e *Engine) markSpeculative(base int64) {
	if e.star && e.specFrom == 0 {
		e.specFrom = base
	}
}

// leaveSpeculation moves the speculative watermark past through: those
// slots are chosen (committed or installed) and leave speculation by
// definition.
func (e *Engine) leaveSpeculation(through int64) {
	if e.specFrom > 0 && e.specFrom <= through {
		e.specFrom = through + 1
		if e.specFrom > e.LastIndex() {
			e.specFrom = 0
		}
	}
}

// starVoteExtra ships the entries beyond the candidate's log so it can
// adopt safe values. Compacted entries cannot be shipped, but any
// candidate that can win a quorum is up-to-date with some replica holding
// the committed (hence snapshotted) prefix, so clamping to the held tail
// is safe. With the fast path on, the report reaches down to the
// candidate's commit index instead: speculative entries can diverge at
// indexes the up-to-date check never compares, and the recovery count
// rule needs every voter's copy of them.
func (e *Engine) starVoteExtra(m *voteReq) []protocol.Entry {
	lo := m.LastIndex + 1
	if e.fast != nil {
		lo = m.Commit + 1
	}
	if e.LastIndex() < lo {
		return nil
	}
	extra := e.log.Tail(max(lo, e.log.FirstIndex()))
	for i := range extra {
		extra[i].Bal = e.balAt(extra[i].Index)
	}
	return extra
}

// tallySafeValues folds a granted vote's entries into the candidate's
// safe value per index: the value accepted at the highest ballot.
func (e *Engine) tallySafeValues(extra []protocol.Entry) {
	for _, ent := range extra {
		if cur, ok := e.extras[ent.Index]; !ok || ent.Bal > cur.Bal {
			e.extras[ent.Index] = ent
		}
		e.extraMax = max(e.extraMax, ent.Index)
	}
}

// starAdoptLog extends the new leader's log with the safe value for every
// index beyond it (Figure 2a lines 22-27) — the value from the highest
// ballot, re-proposed at our term — then re-proposes the entire log at the
// current ballot: every subsequent append stamps Bal = term. Adoptions are
// accepted entries like any other: durable before the leadership
// announcement goes out.
func (e *Engine) starAdoptLog(out *protocol.Output) {
	if e.fast != nil {
		// Fast-path recovery subsumes the safe-value adoption: ChooseFast
		// picks the possibly-chosen value per slot — ratified copies by
		// highest ballot exactly like the base rule, speculative copies by
		// the count rule — from the candidate's commit index up.
		e.starRecoverFast(out)
	} else {
		for i := e.LastIndex() + 1; i <= e.extraMax; i++ {
			ent, ok := e.extras[i]
			cmd := ent.Cmd
			if !ok {
				// No voter had this index (gap below another voter's tail is
				// impossible with contiguous logs, but guard anyway).
				cmd = protocol.Command{Op: protocol.OpNop}
			}
			adopted := protocol.Entry{Index: i, Term: e.term, Bal: e.term, Cmd: cmd}
			e.log.Append(adopted)
			out.AppendedEntries = append(out.AppendedEntries, adopted)
		}
	}
	e.extras = nil
	e.logBal = e.term
}

// starOpenTerm needs no no-op barrier — unlike Raft, Raft* may commit the
// adopted entries directly by counting — but replicates everything it
// holds: the whole log is re-proposed at this ballot. Everything a
// predecessor might have committed is in the log (the vote quorum shipped
// every possibly-chosen entry), so the read barrier at its end covers it.
func (e *Engine) starOpenTerm() {
	if h := e.cfg.Hooks.OnAccept; h != nil && e.log.Len() > 0 {
		h(e.log.Tail(e.log.FirstIndex()))
	}
	for _, p := range e.cfg.Peers {
		if p != e.cfg.ID {
			e.next[p] = 1
		}
	}
}

// starAccept applies an append: reject it if it does not cover our whole
// classic log (Figure 2b line 16: MultiPaxos never deletes accepted
// values, so neither may we; the leader will extend its proposal), else
// overwrite the covered suffix and re-stamp every ballot with the leader's
// term (Figure 2b: logBallot[i] = term for all i). Entries at or below the
// compaction base are already committed and snapshotted here; skip them.
// Every entry written is emitted for persistence stamped with the
// accepting term as its ballot — the re-stamp is what a restarted
// replica's RestoreLog rebuilds the uniform log ballot from — and must be
// durable before the ack leaves (Output.AppendedEntries).
//
// With the fast path on, the never-shorten rule applies to the classic
// prefix only: a speculative tail (entries at or above specFrom) was never
// classically accepted at any ballot, so an append that covers the classic
// prefix but not the tail is fine — covered speculative slots are ratified
// or overwritten, the rest stay speculative.
func (e *Engine) starAccept(m *appendReq, out *protocol.Output) (bool, int64) {
	classicEnd := e.LastIndex()
	if e.specFrom > 0 && e.specFrom-1 < classicEnd {
		classicEnd = e.specFrom - 1
	}
	end := m.PrevIndex + int64(len(m.Entries))
	if end < classicEnd {
		return false, classicEnd
	}
	if e.fast != nil && e.specFrom > 0 && e.specFrom <= end {
		e.ratifySpeculative(m, end, out)
	}
	for _, ent := range m.Entries {
		if ent.Index <= e.log.Base() {
			continue
		}
		if ent.Index <= e.LastIndex() {
			e.log.Set(ent.Index, ent)
		} else {
			e.log.Append(ent)
		}
		ent.Bal = m.Term
		out.AppendedEntries = append(out.AppendedEntries, ent)
	}
	e.logBal = m.Term
	// Report the verified prefix: with a speculative tail left beyond this
	// append's end, only entries below it are known to match the leader
	// (the tail is not the leader's to count yet).
	last := e.LastIndex()
	if e.specFrom > 0 && e.specFrom-1 < last {
		last = e.specFrom - 1
	}
	return true, last
}

// ratifySpeculative takes the speculative slots an append covers out of
// speculation: it cleans the bookkeeping for commands the leader's copies
// displace, and re-routes any fast submission of our own that lost its
// slot and is not carried elsewhere in this append.
func (e *Engine) ratifySpeculative(m *appendReq, end int64, out *protocol.Output) {
	keep := make(map[uint64]bool, len(m.Entries))
	for j := range m.Entries {
		keep[m.Entries[j].Cmd.ID] = true
	}
	var lost []protocol.Command
	for slot := max(e.specFrom, m.PrevIndex+1); slot <= min(end, e.LastIndex()); slot++ {
		old, ok := e.log.At(slot)
		if !ok {
			continue
		}
		if old.Cmd.ID == m.Entries[slot-m.PrevIndex-1].Cmd.ID {
			continue // ratified in place
		}
		delete(e.fastSeen, old.Cmd.ID)
		delete(e.fastDone, slot)
		if e.fastMine[old.Cmd.ID] && !keep[old.Cmd.ID] {
			lost = append(lost, old.Cmd)
		}
	}
	e.routeLost(lost, out)
	// The watermark advances only when the append covered the whole
	// speculative prefix: a lost earlier append leaves slots below
	// PrevIndex unverified, and they must stay speculative until the
	// leader's resend covers them.
	if e.specFrom > m.PrevIndex {
		e.specFrom = end + 1
		if e.specFrom > e.LastIndex() {
			e.specFrom = 0
		}
	}
}

// coverFollowerLog handles a reject from a follower whose log is longer
// than ours: extend with safe no-op proposals up to its length. Indexes
// past a fresh leader's log are provably uncommitted, because the vote
// quorum shipped every possibly-chosen entry.
func (e *Engine) coverFollowerLog(followerLast int64, out *protocol.Output) {
	for i := e.LastIndex() + 1; i <= followerLast; i++ {
		e.appendLocal(protocol.Command{Op: protocol.OpNop}, out)
	}
}

// starCommitBound: no §5.4.2 current-term check — every acknowledged
// entry was re-stamped to the current ballot, exactly like a MultiPaxos
// re-proposal — only the GateCommit hook may hold the commit back.
func (e *Engine) starCommitBound(to int64) int64 {
	if gate := e.cfg.Hooks.GateCommit; gate != nil {
		return gate(to)
	}
	return to
}

// starRecoverFast runs the fast-path election recovery over the vote
// quorum's log reports (protocol.ChooseFast): for every slot above our
// commit index, pick the value that may have been fast-chosen — ratified
// copies by highest ballot, exactly the base safe-value rule; speculative
// copies by the count rule — and install it in our own log. Unlike Raft,
// no term rewrite of ratified entries is needed: Raft* re-proposes the
// whole log at the new ballot anyway (logBal = term right after), which is
// the classic re-proposal Fast Paxos recovery calls for.
func (e *Engine) starRecoverFast(out *protocol.Output) {
	participants := len(e.votes)
	n := len(e.cfg.Peers)
	var displaced []protocol.Command
	chosen := make(map[uint64]bool)
	rewriting := false
	for slot := e.commit + 1; slot <= e.extraMax; slot++ {
		reports, own, ownHeld := e.fastReports(slot)
		cmd, ok := protocol.ChooseFast(reports, participants, n)
		if !ok {
			break // nobody reported anything at or above this slot
		}
		chosen[cmd.ID] = true
		if !rewriting && ownHeld && own.Cmd.ID == cmd.ID && e.balAt(slot) > 0 {
			// Ratified in place: classic entries are unique per (index, term),
			// so the entry's term history can stand and the uniform re-stamp
			// ratifies it at our ballot.
			continue
		}
		// From the first slot whose entry changes — in content, or merely
		// from speculative to classic — the rest of the suffix is rewritten
		// at our term. A kept speculative value must NOT keep its entry term:
		// speculative entries are not unique per (index, term) — a replica
		// that classically accepted a different command at this slot under an
		// older leader carries the same term there, and only a fresh term
		// here lets the append boundary check (PrevTerm) expose the
		// divergence to that replica. Rewriting everything from the first
		// change also keeps the emitted suffix contiguous for the WAL.
		rewriting = true
		adopted := protocol.Entry{Index: slot, Term: e.term, Bal: e.term, Cmd: cmd}
		if ownHeld {
			if own.Cmd.ID != cmd.ID {
				delete(e.fastSeen, own.Cmd.ID)
				delete(e.fastDone, slot)
				if e.fastMine[own.Cmd.ID] {
					displaced = append(displaced, own.Cmd)
				}
			}
			e.log.Set(slot, adopted)
		} else {
			e.log.Append(adopted)
		}
		out.AppendedEntries = append(out.AppendedEntries, adopted)
	}
	e.fastVotes = nil
	e.specFrom = 0 // the whole log is classically re-proposed at our ballot
	var lost []protocol.Command
	for _, cmd := range displaced {
		if !chosen[cmd.ID] {
			lost = append(lost, cmd)
		}
	}
	e.routeLost(lost, out)
	if rewriting {
		out.StateChanged = true
	}
}
