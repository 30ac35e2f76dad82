package raftcore

import "raftpaxos/internal/protocol"

// Raft's side of the rule seam: standard Raft per Figure 2 of the paper
// (black text only), following Ongaro & Ousterhout. A follower erases
// extraneous log entries to match the leader — a state transition
// MultiPaxos forbids — and entry ballots mirror their creation term and are
// never re-stamped, which forces the §5.4.2 restriction that a leader only
// commits entries of its own term by counting replicas.

// raftVoteExtra: a Raft vote carries no log entries — except with the fast
// write path on, where the voter reports its log above the candidate's
// commit index so the candidate can run the fast-path recovery rule
// (protocol.ChooseFast) over the vote quorum: speculative entries (Bal 0)
// it has never seen may hold fast-chosen commands it must adopt.
func (e *Engine) raftVoteExtra(m *voteReq) []protocol.Entry {
	if e.fast == nil {
		return nil
	}
	lo := max(m.Commit+1, e.log.FirstIndex())
	if lo > e.LastIndex() {
		return nil
	}
	return e.log.Slice(lo, e.LastIndex())
}

// raftRecoverFast runs the fast-path election recovery over the vote
// quorum's log reports (protocol.ChooseFast): for every slot above our
// commit index, adopt the value that may have been fast-chosen and
// re-append it at our own term, so the §5.4.2 no-op barrier appended
// right after commits the whole suffix classically. A classic (ratified)
// entry already in place keeps its original term, exactly like standard
// Raft.
func (e *Engine) raftRecoverFast(out *protocol.Output) {
	participants := len(e.votes)
	n := len(e.cfg.Peers)
	maxSlot := e.LastIndex()
	for _, ents := range e.fastVotes {
		if l := len(ents); l > 0 && ents[l-1].Index > maxSlot {
			maxSlot = ents[l-1].Index
		}
	}
	var adopted []protocol.Entry
	changedFrom := int64(0)
	for slot := e.commit + 1; slot <= maxSlot; slot++ {
		reports, own, ownHeld := e.fastReports(slot)
		cmd, ok := protocol.ChooseFast(reports, participants, n)
		if !ok {
			break // nobody reported anything at or above this slot
		}
		if changedFrom == 0 && ownHeld && own.Bal > 0 && own.Cmd.ID == cmd.ID {
			continue // ratified entry already in place: keep its term history
		}
		if changedFrom == 0 {
			changedFrom = slot
		}
		adopted = append(adopted, protocol.Entry{Index: slot, Term: e.term, Bal: e.term, Cmd: cmd})
	}
	e.fastVotes = nil
	if changedFrom == 0 {
		return
	}
	e.dropSpeculative(changedFrom, adopted, out)
	e.log.TruncateSuffix(changedFrom - 1)
	for _, ent := range adopted {
		e.log.Append(ent)
	}
	out.AppendedEntries = append(out.AppendedEntries, adopted...)
	out.StateChanged = true
}

// raftAccept: find the first conflicting entry, ERASE everything from
// there on, then append — the follower's log is forced to match the
// leader's, even if that shortens it. This is the transition with no
// MultiPaxos counterpart (Section 3). Entries at or below the compaction
// base are committed and snapshotted here; they can never conflict and are
// skipped. Everything newly written — from the first conflicting or fresh
// index on — is emitted for persistence before the ack leaves
// (Output.AppendedEntries): the store's overwriting append erases the same
// stale suffix the in-memory truncation did.
func (e *Engine) raftAccept(m *appendReq, out *protocol.Output) (bool, int64) {
	for k, ent := range m.Entries {
		if ent.Index <= e.log.Base() {
			continue
		}
		if ent.Index <= e.LastIndex() {
			conflict := e.termAt(ent.Index) != ent.Term
			if cur, ok := e.log.At(ent.Index); ok && cur.Bal == 0 && e.fast != nil {
				if cur.Cmd.ID != ent.Cmd.ID {
					// Speculative entries can collide at equal terms:
					// the leader's copy arbitrates.
					conflict = true
				} else if !conflict && ent.Bal != 0 {
					// The leader's classic copy carries the same command:
					// ratify our speculative entry in place.
					cur.Bal = ent.Bal
					e.log.Set(ent.Index, cur)
				}
			}
			if conflict {
				if e.fast != nil {
					e.dropSpeculative(ent.Index, m.Entries, out)
				}
				e.log.TruncateSuffix(ent.Index - 1) // erase conflicting suffix
			}
		}
		if ent.Index > e.LastIndex() {
			for _, rest := range m.Entries[k:] {
				e.log.Append(rest)
			}
			out.AppendedEntries = append(out.AppendedEntries, m.Entries[k:]...)
			break
		}
	}
	last := m.PrevIndex + int64(len(m.Entries))
	if e.fast != nil {
		// Ack only the verified prefix: a lost earlier append can leave
		// unratified speculative entries below this one's range, and
		// those are not the leader's to count toward a commit quorum.
		for i := e.commit + 1; i <= last; i++ {
			if ent, ok := e.log.At(i); ok && ent.Bal == 0 {
				last = i - 1
				break
			}
		}
	}
	return true, last
}

// raftCommitBound is §5.4.2: walk back to the highest quorum-matched index
// whose entry is from the current term — only those may be committed by
// counting.
func (e *Engine) raftCommitBound(to int64) int64 {
	for to > e.commit && e.termAt(to) != e.term {
		to--
	}
	return to
}

// dropSpeculative cleans fast-path bookkeeping for entries about to be
// truncated at or above from: their recorded slots become invalid, and
// any fast submission of our own that loses its log position — and is
// not in keep, about to be re-appended by the caller — is re-routed
// through the classic path so the command still commits.
func (e *Engine) dropSpeculative(from int64, keep []protocol.Entry, out *protocol.Output) {
	kept := make(map[uint64]bool, len(keep))
	for i := range keep {
		kept[keep[i].Cmd.ID] = true
	}
	var lost []protocol.Command
	for i := from; i <= e.LastIndex(); i++ {
		ent, ok := e.log.At(i)
		if !ok || ent.Bal != 0 {
			continue
		}
		id := ent.Cmd.ID
		delete(e.fastSeen, id)
		delete(e.fastDone, i)
		if e.fastMine[id] && !kept[id] {
			lost = append(lost, ent.Cmd)
		}
	}
	e.routeLost(lost, out)
}
