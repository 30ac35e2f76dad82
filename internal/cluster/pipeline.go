// The asynchronous persistence pipeline: the complete half of the
// stage/complete split around Node.finish.
//
// The event loop stages one persistJob per load-bearing iteration
// (stageCh, capacity = Config.PersistWindow) and keeps stepping the
// engine; the persister goroutine drains whatever is staged into one
// group-committed round — entries from every drained job share a single
// fsync, the newest hard state folds into the same flush
// (storage.GroupSync) — and then walks the drained jobs strictly in
// staging order, releasing each job's withheld BarrierMessages and its
// applyCh hand-off only once everything the job accepted is durable.
// That keeps the protocol.Output barrier (entries fsynced → hard state
// fsynced → acks released → commits applied) intact per round while the
// fsync itself overlaps with message processing.
package cluster

import (
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// persistJob is one event-loop iteration's persistence round.
type persistJob struct {
	// entries are the iteration's accepted entries (value copies emitted
	// by the engine; the loop never mutates them after staging).
	entries []protocol.Entry
	// install, when non-nil, is a wire snapshot the engine adopted this
	// iteration: it must be durable — and the WAL base jumped — before
	// any entry above its boundary is appended.
	install *protocol.SnapshotImage
	// msgs are the iteration's withheld messages, released only when this
	// round (and every round staged before it) is durable. Iterations
	// that qualified for early release stage only their BarrierMessages.
	msgs []protocol.Envelope
	// hs/saveHS carry the engine's hard state, snapshotted on the event
	// loop, when this iteration moved it (term, vote, or commits).
	hs     storage.HardState
	saveHS bool
	// barrier marks a round some promise depends on (an ack in msgs or a
	// commit in batch): the drain containing it must fsync. Rounds
	// without it stay buffered — group commit across the window.
	barrier bool
	// handoff/batch carry the iteration's commits, replies, and confirmed
	// reads to the applier, strictly after the round's durability point.
	handoff bool
	batch   applyBatch
	// force is the shutdown flush: save hs even inside the commit-only
	// throttle window.
	force bool
	// done, when non-nil, is closed once the round completes
	// (Config.SyncPersist: the loop waits on it).
	done chan struct{}
}

// stage hands one round to the persister, blocking — and counting the
// stall — only when the in-flight window is full. Event loop only.
func (n *Node) stage(job persistJob) {
	if n.cfg.SyncPersist || n.cfg.DisableBatching {
		job.done = make(chan struct{})
	}
	if cur := n.inflightCur.Add(1); cur > n.inflightMax.Load() {
		n.inflightMax.Store(cur) // loop is the only writer; no CAS needed
	}
	select {
	case n.stageCh <- job:
	default:
		// Window full: the disk is behind. Block (backpressure) and bill
		// the wait to loopStallNs — the clock is read only on this path,
		// so an unsaturated pipeline costs zero time.Now calls.
		start := time.Now()
		n.stageCh <- job
		n.loopStallNs.Add(time.Since(start).Nanoseconds())
	}
	if job.done != nil {
		<-job.done
	}
}

// persister is the pipeline's completion half: it drains staged rounds,
// group-commits their writes, and releases their effects in staging
// order. It exits when the event loop closes stageCh (after staging the
// shutdown flush), having completed every staged round — Stop waits for
// that before closing applyCh, so no hand-off is ever dropped.
func (n *Node) persister() {
	defer close(n.persistDone)
	var jobs []persistJob
	open := true
	for open {
		job, ok := <-n.stageCh
		if !ok {
			return
		}
		jobs = append(jobs[:0], job)
		// Coalesce: every round already staged joins this drain and
		// shares its fsync. The stage channel's capacity bounds the batch.
	coalesce:
		for {
			select {
			case next, ok := <-n.stageCh:
				if !ok {
					open = false
					break coalesce
				}
				jobs = append(jobs, next)
			default:
				break coalesce
			}
		}
		n.processRounds(jobs)
	}
}

// processRounds is one group-committed drain: write every job's entries
// (and snapshot install), fsync once if any job carries a promise, fold
// the newest hard state into the same flush, then complete the jobs in
// staging order — withheld messages and applyCh hand-offs release per
// job, and a failure at job i fails jobs i.. while jobs before i still
// complete.
func (n *Node) processRounds(jobs []persistJob) {
	var (
		perr     error
		failIdx  = len(jobs) // first failed job; everything at/after it fails
		needSync = false
	)
	for i := range jobs {
		job := &jobs[i]
		if perr != nil {
			// A round already failed in this drain: later rounds' entries
			// join the redo batch (they must eventually reach disk — the
			// engine will re-ack but never re-emit them) and their acks
			// stay withheld.
			n.redo = append(n.redo, n.persistable(job.entries)...)
			continue
		}
		if img := job.install; img != nil {
			// A wire snapshot adopted this round: make it durable and jump
			// the WAL's compaction base first, so this round's entries
			// (and every later round's, above the boundary) land on a
			// store whose log starts at the image.
			if ss, ok := n.cfg.Stable.(storage.SnapshotStore); ok {
				if err := ss.InstallSnapshot(storage.Snapshot{
					Index: img.Index, Term: img.Term, State: img.Data,
				}); err != nil {
					perr, failIdx = err, i
					n.redo = append(n.redo, n.persistable(job.entries)...)
					continue
				}
			}
		}
		ents := job.entries
		if len(n.redo) > 0 {
			ents = append(n.redo, ents...)
			n.redo = nil
		}
		ents = n.persistable(ents)
		if err := n.appendRound(ents); err != nil {
			// Carried forward, not dropped: see the redo field's contract.
			// The copy owns its backing array (ents may alias job slices).
			perr, failIdx = err, i
			n.redo = append([]protocol.Entry(nil), ents...)
			continue
		}
		if job.barrier {
			needSync = true
		}
	}

	// Hard state: the newest snapshot across the drain wins (hard state
	// only moves forward within one loop's staging order). Fencing moves
	// (term/vote) always save — a vote grant is only releasable once the
	// vote is durable; commit-only movement saves at commitSaveInterval
	// cadence, one clock read per drain, none on the event loop.
	var (
		hs    storage.HardState
		save  bool
		force bool
	)
	for i := range jobs {
		if jobs[i].saveHS {
			hs, save = jobs[i].hs, true
			force = force || jobs[i].force
		}
	}
	if save && n.hardSaved && hs == n.lastSaved {
		save = false
	}
	if save && !force {
		fence := !n.hardSaved || hs.Term != n.lastSaved.Term || hs.VotedFor != n.lastSaved.VotedFor
		if !fence && time.Since(n.lastCommitSave) < commitSaveInterval {
			save = false
		}
	}

	// Completion, strictly in staging order — but the fsync waits until
	// the first job that actually needs it. Jobs before the drain's first
	// barrier round owe nothing to this drain's sync (their commits were
	// durability-checked at staging), so their withheld hand-offs release
	// while the disk is still quiet; one sync then retires every barrier
	// round in the drain at once. The sync runs even when a later round's
	// append failed: successful rounds' promises need the buffered
	// entries on disk (the failed batch is in redo, not the buffer, so
	// the sync covers exactly what succeeded).
	synced := false
	for i := range jobs {
		job := &jobs[i]
		if job.barrier && !synced && needSync {
			synced = true
			if serr := n.syncAndSave(hs, save, true); serr != nil {
				// The group fsync (or hard-state save) failed: no round
				// from here on reached its durability point, so all of
				// them fail and their acks stay withheld. Buffered
				// entries survive in the store's write buffer (or redo)
				// and retry under a future drain's sync.
				if i < failIdx {
					perr, failIdx = serr, i
				}
			} else {
				save = false
			}
		}
		failed := i >= failIdx
		if failed {
			n.notePersistFailure(perr)
		} else {
			n.notePersistSuccess()
			for _, env := range job.msgs {
				n.send(env)
			}
		}
		if job.handoff {
			if failed {
				job.batch.persistErr = perr
			}
			// Plain send: the applier drains applyCh until Stop closes it,
			// which happens only after this goroutine exits.
			n.applyCh <- job.batch
		}
		if job.done != nil {
			close(job.done)
		}
		n.inflightCur.Add(-1)
	}
	if save {
		// No barrier round consumed the save: persist the watermark (or
		// the shutdown flush) after everything released — nothing waits.
		if serr := n.syncAndSave(hs, true, false); serr != nil && perr == nil {
			n.notePersistFailure(serr)
		}
	}
}

// appendRound writes one round's entries to the log store: buffered when
// the store defers syncs (the drain's single fsync covers them), plain
// otherwise, per-entry under DisableBatching (the measured baseline).
func (n *Node) appendRound(ents []protocol.Entry) error {
	if n.cfg.DisableBatching {
		for _, ent := range ents {
			if err := n.cfg.Stable.Append([]protocol.Entry{ent}); err != nil {
				return err
			}
		}
		return nil
	}
	if len(ents) == 0 {
		return nil
	}
	if gs, ok := n.cfg.Stable.(storage.GroupSync); ok {
		return gs.AppendBuffered(ents)
	}
	return n.cfg.Stable.Append(ents)
}

// syncAndSave retires the drain's durability obligations: flush buffered
// entries when a promise depends on them (doSync), then persist the hard
// state when it moved (save) — fused into one storage.GroupSync.SyncBatch
// call whenever entries are flushed. On success the durable watermark
// (durableIdx) advances, re-arming the event loop's early-release check.
func (n *Node) syncAndSave(hs storage.HardState, save, doSync bool) error {
	gs, deferred := n.cfg.Stable.(storage.GroupSync)
	// Under DisableBatching the persister never buffers (per-entry
	// Appends sync themselves), so the store is effectively plain.
	deferred = deferred && !n.cfg.DisableBatching
	doSync = doSync && deferred
	if !doSync && !save {
		n.advanceDurable(deferred, false)
		return nil
	}
	start := time.Now()
	var err error
	if doSync {
		// One lock acquisition retires the whole window: entries first,
		// then hard state — the barrier's steps 1 and 2.
		err = gs.SyncBatch(hs, save)
	} else {
		// A save-only drain (commit watermark, shutdown flush) must not
		// drag promise-free buffered entries to disk with it.
		err = n.cfg.Stable.SaveHardState(hs)
	}
	n.syncNs.Add(time.Since(start).Nanoseconds())
	if doSync {
		n.syncBatches.Add(1)
	}
	if err != nil {
		return err
	}
	if save {
		n.lastSaved, n.hardSaved = hs, true
		n.lastCommitSave = start
	}
	n.advanceDurable(deferred, doSync)
	return nil
}

// advanceDurable publishes the store's last index as the durable
// watermark. For a deferred-sync store that is only true after a
// successful sync (the tail may sit in the write buffer); plain stores
// are durable per append.
func (n *Node) advanceDurable(deferred, synced bool) {
	if deferred && !synced {
		return
	}
	if last, err := n.cfg.Stable.LastIndex(); err == nil {
		n.durableIdx.Store(last)
	}
}

// PersistStats reports the pipeline's counters: total nanoseconds inside
// sync/save calls (off the event loop), group-committed sync batches
// issued, event-loop nanoseconds blocked on a full staging window, and
// the high-water mark of staged-but-incomplete rounds.
func (n *Node) PersistStats() (syncNs, syncBatches, loopStallNs, inflightMax int64) {
	return n.syncNs.Load(), n.syncBatches.Load(), n.loopStallNs.Load(), n.inflightMax.Load()
}
