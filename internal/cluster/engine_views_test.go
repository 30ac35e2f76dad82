package cluster

import (
	"strings"
	"testing"

	"raftpaxos/internal/coorraft"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/pql"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/rql"
)

// has reports whether e offers the optional view T.
func has[T any](e protocol.Engine) bool {
	_, ok := e.(T)
	return ok
}

// TestEngineOptionalViews pins which optional interfaces each engine
// constructor's result offers the Node. The Node discovers every one of
// them by type assertion, so a method that embedding shadows or drops
// moves the Node onto a different path — per-command submits instead of
// a batch, no snapshot shipping, no restart restore — without failing
// anything else. Deliberate gaps: the lease engines (rql, pql) have no
// SubmitReadBatch because lease reads are per command, the Paxos-family
// engines expose no VotedFor, and Mencius ships no snapshots.
func TestEngineOptionalViews(t *testing.T) {
	views := []struct {
		name string
		has  func(protocol.Engine) bool
	}{
		{"SnapshotSender", has[protocol.SnapshotSender]},
		{"SnapshotRestorer", has[protocol.SnapshotRestorer]},
		{"PrefixTruncator", has[protocol.PrefixTruncator]},
		{"BatchSubmitter", has[protocol.BatchSubmitter]},
		{"ReadBatchSubmitter", has[protocol.ReadBatchSubmitter]},
		{"FastStatser", has[protocol.FastStatser]},
		{"logRestorer", has[logRestorer]},
		{"restorer", has[restorer]},
		{"comitter", has[comitter]},
		{"termer", has[termer]},
		{"voter", has[voter]},
	}
	peers := []protocol.NodeID{0, 1, 2}
	engines := []struct {
		name string
		e    protocol.Engine
		want string
	}{
		{"raft", raft.New(raft.Config{ID: 0, Peers: peers}),
			"SnapshotSender SnapshotRestorer PrefixTruncator BatchSubmitter ReadBatchSubmitter FastStatser logRestorer restorer comitter termer voter"},
		{"raftstar", raftstar.New(raftstar.Config{ID: 0, Peers: peers}),
			"SnapshotSender SnapshotRestorer PrefixTruncator BatchSubmitter ReadBatchSubmitter FastStatser logRestorer restorer comitter termer voter"},
		{"rql", rql.New(rql.Config{Raft: raftstar.Config{ID: 0, Peers: peers}}),
			"SnapshotSender SnapshotRestorer PrefixTruncator BatchSubmitter logRestorer restorer comitter termer voter"},
		{"multipaxos", multipaxos.New(multipaxos.Config{ID: 0, Peers: peers}),
			"SnapshotSender SnapshotRestorer PrefixTruncator BatchSubmitter ReadBatchSubmitter FastStatser logRestorer restorer comitter termer"},
		{"pql", pql.New(pql.Config{Paxos: multipaxos.Config{ID: 0, Peers: peers}}),
			"SnapshotSender SnapshotRestorer PrefixTruncator BatchSubmitter logRestorer restorer comitter termer"},
		{"coorraft", coorraft.New(coorraft.Config{ID: 0, Peers: peers}),
			"SnapshotRestorer PrefixTruncator logRestorer restorer comitter termer"},
		{"mencius", mencius.New(mencius.Config{ID: 0, Peers: peers}),
			"SnapshotRestorer PrefixTruncator logRestorer restorer comitter termer"},
	}
	for _, tc := range engines {
		var got []string
		for _, v := range views {
			if v.has(tc.e) {
				got = append(got, v.name)
			}
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s offers\n  %s\nwant\n  %s", tc.name, g, tc.want)
		}
	}
}
