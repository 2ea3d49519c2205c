package exp

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"p2pmpi/internal/grid"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// TestSharedFrameShardRace puts the supernodes' shared whole-table
// frames under the race detector. A settled K=4 federation adopts the
// interner's canonical merged view and image, so members that run on
// different shard event loops build and send the frame of one image at
// the same virtual instant, and frames they sent are read by receivers
// on other shards. MaxPeersReturned is above the world's size, so
// every host-list reply is the whole table.
//
// Each round, one compute host per site asks every member for the host
// list at once, and the members answer with the canonical image's one
// frame: the replies, held unreleased, all share one backing array,
// across shards. The replies' bytes, and the
// membership tier's byte and exchange counters, equal those of the same
// world on one shard.
func TestSharedFrameShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	spec, err := grid.ParseTopologySpec("synth:S=4,H=6")
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) (frames [][]byte, fed string) {
		o := DefaultOptions(99)
		o.Topology = spec
		o.Supernodes = 4
		o.Shards = shards
		o.MaxPeersReturned = 1 << 10
		w := NewWorld(o)
		defer w.Close()
		if err := w.Boot(); err != nil {
			t.Fatal(err)
		}
		w.RunFor(30 * time.Second) // gossip settles; members adopt the canonical view
		if !w.fedConverged() {
			t.Fatalf("shards=%d: the federation did not converge", shards)
		}
		if shards > 1 && w.siteShard[w.Grid.Hosts[0].Site] == w.siteShard[w.Grid.Hosts[len(w.Grid.Hosts)-1].Site] {
			t.Fatalf("shards=%d: every site on one shard", shards)
		}

		// One client per site, each asking every member.
		var clients []*grid.Host
		seen := map[string]bool{}
		for _, h := range w.Grid.Hosts {
			if !seen[h.Site] {
				seen[h.Site] = true
				clients = append(clients, h)
			}
		}
		req := proto.MustMarshal(&proto.FetchPeers{})
		for round := 0; round < 2; round++ {
			replies := make([]transport.Message, len(clients)*len(w.SNAddrs))
			errs := make([]error, len(replies))
			for ci, h := range clients {
				node := w.Net.Node(h.ID)
				w.shardFor(h.Site).Schedule(0, func() {
					for k, addr := range w.SNAddrs {
						i := ci*len(w.SNAddrs) + k
						transport.Call(node, addr, transport.Message{Payload: req}, 10*time.Second,
							func(m transport.Message, err error) { replies[i], errs[i] = m, err })
					}
				})
			}
			w.RunFor(5 * time.Second)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("shards=%d round %d: fetch %d: %v", shards, round, i, err)
				}
			}
			for i, m := range replies {
				if !m.IsShared() || unsafe.SliceData(m.Payload) != unsafe.SliceData(replies[0].Payload) {
					t.Fatalf("shards=%d round %d: reply %d (member %d) is not the canonical frame",
						shards, round, i, i%len(w.SNAddrs))
				}
			}
			frames = append(frames, bytes.Clone(replies[0].Payload))
		}
		st := w.FederationStats()
		// Staleness is timed to the nanosecond, and sharded delivery
		// drifts below the jitter there (ROADMAP item 10); the byte and
		// exchange counts must match exactly.
		st.StaleSumNS, st.StaleMaxNS = 0, 0
		return frames, fmt.Sprintf("%+v", st)
	}

	seqFrames, seqFed := run(1)
	shFrames, shFed := run(2)
	for i := range seqFrames {
		if !bytes.Equal(seqFrames[i], shFrames[i]) {
			t.Fatalf("round %d: the sharded world's host list differs from the sequential one", i)
		}
	}
	if shFed != seqFed {
		t.Fatalf("membership-tier counters diverged:\nseq     %s\nsharded %s", seqFed, shFed)
	}
}
