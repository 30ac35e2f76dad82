package raftcore

import (
	"reflect"
	"testing"

	"raftpaxos/internal/protocol"
)

// TestEachRuleSetSpeaksItsOwnWireSet checks the message boundary of the
// shared engine: a replica emits only its own protocol's message types
// and ignores the other protocol's, even though both unwrap to the same
// neutral forms.
func TestEachRuleSetSpeaksItsOwnWireSet(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	cases := []struct {
		name         string
		build        func(Config) *Engine
		own, foreign protocol.Message
		voteResp     protocol.Message
	}{
		{"raft", NewRaft, &RaftVoteReq{Term: 1}, &StarVoteReq{Term: 1}, &RaftVoteResp{}},
		{"raftstar", NewRaftStar, &StarVoteReq{Term: 1}, &RaftVoteReq{Term: 1}, &StarVoteResp{}},
	}
	for _, tc := range cases {
		cand := tc.build(Config{ID: 0, Peers: peers})
		out := cand.Campaign()
		if len(out.Msgs) != 2 {
			t.Fatalf("%s: campaign sent %d messages, want 2", tc.name, len(out.Msgs))
		}
		for _, env := range out.Msgs {
			if reflect.TypeOf(env.Msg) != reflect.TypeOf(tc.own) {
				t.Errorf("%s: campaign sent %T, want %T", tc.name, env.Msg, tc.own)
			}
		}

		voter := tc.build(Config{ID: 1, Peers: peers})
		if out := voter.Step(0, tc.foreign); len(out.Msgs) != 0 || voter.Term() != 0 {
			t.Errorf("%s: stepped the other protocol's %T (term %d, %d replies)", tc.name, tc.foreign, voter.Term(), len(out.Msgs))
		}
		out = voter.Step(0, tc.own)
		if len(out.Msgs) != 1 || reflect.TypeOf(out.Msgs[0].Msg) != reflect.TypeOf(tc.voteResp) {
			t.Fatalf("%s: vote reply %+v, want one %T", tc.name, out.Msgs, tc.voteResp)
		}
	}
}
