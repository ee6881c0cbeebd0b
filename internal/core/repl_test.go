package core

import (
	"testing"

	"cruz/internal/ckpt"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// ringPeers wires each agent's replication ring: agent i pushes to i+1.
func ringPeers(cl *cluster) {
	n := len(cl.agents)
	for i, ag := range cl.agents {
		peers := make([]tcpip.AddrPort, 0, n-1)
		for j := 1; j < n; j++ {
			peers = append(peers, cl.agents[(i+j)%n].Addr())
		}
		ag.SetPeers(peers)
	}
}

// allReplicated waits until every agent reports at least n completed
// replications.
func (cl *cluster) allReplicated(n uint64) bool {
	return cl.runUntil(func() bool {
		for _, ag := range cl.agents {
			if ag.Stats.Replications < n {
				return false
			}
		}
		return true
	}, 30*sim.Second)
}

// TestReplicationPlacesImageOnPeer: a checkpoint with Replicas=1 lands a
// usable copy of each pod's image on the next ring peer, off the
// protocol's critical path (message count for the cycle is unchanged).
func TestReplicationPlacesImageOnPeer(t *testing.T) {
	cl := newCluster(t, 4, 200*sim.Microsecond)
	ringPeers(cl)
	cl.run(1 * sim.Second)

	res := cl.checkpoint(CheckpointOptions{Replicas: 1})
	// Replication is asynchronous: the coordinated cycle still costs the
	// blocking protocol's 4 messages per member.
	if res.Messages != 4*4 {
		t.Fatalf("Messages = %d, want 16 (replication must stay off the cycle)", res.Messages)
	}
	if !cl.allReplicated(1) {
		t.Fatal("replication never completed")
	}
	for i := range cl.agents {
		peer := (i + 1) % 4
		if !cl.stores[peer].HasSeq(podName(i), res.Seq) {
			t.Fatalf("peer store %d lacks %s seq %d", peer, podName(i), res.Seq)
		}
	}
	cl.run(1 * sim.Second)
	cl.checkHealthy(cl.workers)
}

// TestReplicationDeltaShrinks: with dedup, the second replication of a
// mostly-unchanged heap ships only the delta — far fewer bytes than the
// first full transfer.
func TestReplicationDeltaShrinks(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	ringPeers(cl)
	cl.run(1 * sim.Second)

	cl.checkpoint(CheckpointOptions{Dedup: true, Replicas: 1})
	if !cl.allReplicated(1) {
		t.Fatal("first replication never completed")
	}
	first := cl.agents[0].Stats.ReplBytes

	cl.run(50 * sim.Millisecond) // a few rounds dirty a handful of pages
	cl.checkpoint(CheckpointOptions{Dedup: true, Incremental: true, Replicas: 1})
	if !cl.allReplicated(2) {
		t.Fatal("second replication never completed")
	}
	second := cl.agents[0].Stats.ReplBytes - first

	if first == 0 || second == 0 {
		t.Fatalf("replication moved no bytes: first=%d second=%d", first, second)
	}
	if second >= first {
		t.Fatalf("delta replication did not shrink: first=%d second=%d", first, second)
	}
	if cl.agents[0].OpenOps() != 0 || cl.agents[1].OpenOps() != 0 {
		t.Fatalf("leaked agent ops: %d/%d", cl.agents[0].OpenOps(), cl.agents[1].OpenOps())
	}
}

// TestShardSetRejectsHolderOutsideSet: a data message whose ring position
// lies outside the set it carries is refused before any shard index is
// computed from it.
func TestShardSetRejectsHolderOutsideSet(t *testing.T) {
	set := &ckpt.ECSet{Pod: "p", Seq: 1, M: 2, R: 1, Chain: []int{1}, Stripes: []ckpt.ECStripe{{
		Data:   []mem.PageHash{mem.HashBlock([]byte{1}), mem.HashBlock([]byte{2})},
		Parity: []mem.PageHash{mem.HashBlock([]byte{3})},
	}}}
	blob, err := set.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for holder, ok := range map[int]bool{-1: false, 0: true, 2: true, 3: false} {
		if _, err := shardSet(&replPayload{ECSet: blob, Holder: holder}); (err == nil) != ok {
			t.Errorf("holder %d: err = %v, want accepted=%v", holder, err, ok)
		}
	}
}
