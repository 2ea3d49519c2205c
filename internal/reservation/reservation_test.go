package reservation

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

func world(t *testing.T, hosts ...string) (*vtime.Scheduler, *simnet.Net) {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	hs := make(map[string]string, len(hosts))
	for _, h := range hosts {
		hs[h] = "site-" + h
	}
	n := simnet.New(s, &simnet.StaticTopology{HostSite: hs, DefLat: 2 * time.Millisecond},
		simnet.Config{Seed: 9, NICBps: 1e9})
	return s, n
}

func submitter() proto.PeerInfo {
	return proto.PeerInfo{ID: "frontal", MPDAddr: "frontal:9000", RSAddr: "frontal:9001"}
}

func reserveVia(t *testing.T, s *vtime.Scheduler, n *simnet.Net, from string, req *proto.Reserve, rsAddr string) any {
	t.Helper()
	reply, err := transport.RequestReply(n.Node(from), rsAddr,
		transport.Message{Payload: proto.MustMarshal(req)}, time.Second)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	_, msg, err := proto.Unmarshal(reply.Payload)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return msg
}

func TestReserveOKCarriesP(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 4})
	s.Go("main", func() {
		if err := rs.Start(); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		msg := reserveVia(t, s, n, "frontal", &proto.Reserve{
			Key: "k1", JobID: "job1", Submitter: submitter(), N: 10}, "h1:9001")
		ok, isOK := msg.(*proto.ReserveOK)
		if !isOK || ok.P != 4 || ok.Key != "k1" {
			t.Errorf("reply = %+v", msg)
		}
		if rs.Held() != 1 {
			t.Errorf("held = %d", rs.Held())
		}
		rs.Close()
	})
	s.Wait()
}

func TestJLimitRejectsSecondApplication(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 2})
	s.Go("main", func() {
		rs.Start()
		m1 := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", JobID: "j1", Submitter: submitter()}, "h1:9001")
		if _, isOK := m1.(*proto.ReserveOK); !isOK {
			t.Errorf("first reserve rejected: %+v", m1)
		}
		m2 := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "b", JobID: "j2", Submitter: submitter()}, "h1:9001")
		nok, isNOK := m2.(*proto.ReserveNOK)
		if !isNOK || nok.Reason != ReasonBusy {
			t.Errorf("second reserve = %+v", m2)
		}
		// Same key again is a refresh, not a second application.
		m3 := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", JobID: "j1", Submitter: submitter()}, "h1:9001")
		if _, isOK := m3.(*proto.ReserveOK); !isOK {
			t.Errorf("refresh rejected: %+v", m3)
		}
		rs.Close()
	})
	s.Wait()
}

func TestDenyList(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 2, P: 2, Deny: []string{"frontal"}})
	s.Go("main", func() {
		rs.Start()
		m := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", Submitter: submitter()}, "h1:9001")
		nok, isNOK := m.(*proto.ReserveNOK)
		if !isNOK || nok.Reason != ReasonDenied {
			t.Errorf("reply = %+v", m)
		}
		a, r := rs.Stats()
		if a != 0 || r != 1 {
			t.Errorf("stats = %d/%d", a, r)
		}
		rs.Close()
	})
	s.Wait()
}

func TestHoldExpiry(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 2})
	s.Go("main", func() {
		rs.Start()
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", Submitter: submitter()}, "h1:9001")
		if !rs.ValidateKey("a") {
			t.Error("key invalid right after reserve")
		}
		s.Sleep(holdTTL + time.Second)
		if rs.ValidateKey("a") {
			t.Error("key still valid after TTL")
		}
		// The expired hold freed the J slot.
		m := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "b", Submitter: submitter()}, "h1:9001")
		if _, isOK := m.(*proto.ReserveOK); !isOK {
			t.Errorf("slot not freed by expiry: %+v", m)
		}
		rs.Close()
	})
	s.Wait()
}

func TestConsumeAndRelease(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 2})
	s.Go("main", func() {
		rs.Start()
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", Submitter: submitter()}, "h1:9001")
		if err := rs.Consume("a"); err != nil {
			t.Errorf("consume: %v", err)
		}
		if rs.Running() != 1 || rs.Held() != 0 {
			t.Errorf("running=%d held=%d", rs.Running(), rs.Held())
		}
		if err := rs.Consume("a"); err != ErrUnknownKey {
			t.Errorf("double consume err = %v", err)
		}
		// Running app occupies the J slot.
		m := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "b", Submitter: submitter()}, "h1:9001")
		if _, isNOK := m.(*proto.ReserveNOK); !isNOK {
			t.Errorf("J not enforced while running: %+v", m)
		}
		rs.Release("a")
		m2 := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "c", Submitter: submitter()}, "h1:9001")
		if _, isOK := m2.(*proto.ReserveOK); !isOK {
			t.Errorf("release did not free slot: %+v", m2)
		}
		rs.Close()
	})
	s.Wait()
}

// TestFailAllIsNotAConflict pins the churn accounting contract: a
// release caused by the host crashing frees every slot but must not
// bump the rejected counter that feeds the reservation-conflict rate.
func TestFailAllIsNotAConflict(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 2, P: 2})
	s.Go("main", func() {
		rs.Start()
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", Submitter: submitter()}, "h1:9001")
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "b", Submitter: submitter()}, "h1:9001")
		if err := rs.Consume("a"); err != nil {
			t.Errorf("consume: %v", err)
		}
		_, rejBefore := rs.Stats()

		if dropped := rs.FailAll(); dropped != 2 {
			t.Errorf("FailAll dropped %d reservations, want 2 (one held, one running)", dropped)
		}
		if rs.Held() != 0 || rs.Running() != 0 {
			t.Errorf("after crash: held=%d running=%d", rs.Held(), rs.Running())
		}
		if _, rej := rs.Stats(); rej != rejBefore {
			t.Errorf("host failure counted as conflict: rejected %d -> %d", rejBefore, rej)
		}
		if rs.FailedReleases() != 2 {
			t.Errorf("failed releases = %d, want 2", rs.FailedReleases())
		}
		// The rebooted host accepts fresh reservations immediately.
		m := reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "c", Submitter: submitter()}, "h1:9001")
		if _, isOK := m.(*proto.ReserveOK); !isOK {
			t.Errorf("crashed host did not free its slots: %+v", m)
		}
		rs.Close()
	})
	s.Wait()
}

func TestRemoteCancel(t *testing.T) {
	s, n := world(t, "frontal", "h1")
	rs := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 2})
	s.Go("main", func() {
		rs.Start()
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "a", Submitter: submitter()}, "h1:9001")
		reply, err := transport.RequestReply(n.Node("frontal"), "h1:9001",
			transport.Message{Payload: proto.MustMarshal(&proto.Cancel{Key: "a"})}, time.Second)
		if err != nil {
			t.Errorf("cancel: %v", err)
			return
		}
		_, msg, _ := proto.Unmarshal(reply.Payload)
		if ack, ok := msg.(*proto.CancelAck); !ok || ack.Key != "a" {
			t.Errorf("cancel reply = %+v", msg)
		}
		if rs.Held() != 0 {
			t.Errorf("held = %d after cancel", rs.Held())
		}
		rs.Close()
	})
	s.Wait()
}

func TestBrokerGathersInCandidateOrder(t *testing.T) {
	hosts := []string{"frontal", "h1", "h2", "h3", "h4"}
	s, n := world(t, hosts...)
	var services []*Service
	for i, h := range hosts[1:] {
		cfg := Config{Addr: h + ":9001", J: 1, P: i + 1}
		if h == "h3" {
			cfg.Deny = []string{"frontal"} // h3 refuses
		}
		services = append(services, New(s, n.Node(h), cfg))
	}
	var res BrokerResult
	s.Go("main", func() {
		for _, rs := range services {
			rs.Start()
		}
		var cands []proto.PeerInfo
		for _, h := range hosts[1:] {
			cands = append(cands, proto.PeerInfo{ID: h, RSAddr: h + ":9001"})
		}
		res = Broker(s, n.Node("frontal"), cands,
			proto.Reserve{Key: "k", JobID: "j", Submitter: submitter(), N: 4}, 2*time.Second)
		for _, rs := range services {
			rs.Close()
		}
	})
	s.Wait()
	if len(res.Offers) != 3 {
		t.Fatalf("offers = %+v", res.Offers)
	}
	// Candidate order h1, h2, h4 preserved with their P values 1, 2, 4.
	wantIDs := []string{"h1", "h2", "h4"}
	wantP := []int{1, 2, 4}
	for i, o := range res.Offers {
		if o.Peer.ID != wantIDs[i] || o.P != wantP[i] {
			t.Fatalf("offer %d = %+v", i, o)
		}
	}
	if len(res.Refused) != 1 || res.Refused[0].ID != "h3" {
		t.Fatalf("refused = %+v", res.Refused)
	}
	if len(res.Dead) != 0 {
		t.Fatalf("dead = %+v", res.Dead)
	}
}

func TestBrokerMarksSilentPeersDead(t *testing.T) {
	s, n := world(t, "frontal", "h1", "h2")
	rs1 := New(s, n.Node("h1"), Config{Addr: "h1:9001", J: 1, P: 2})
	var res BrokerResult
	var took time.Duration
	s.Go("main", func() {
		rs1.Start()
		// h2 exists in the topology but runs no RS.
		cands := []proto.PeerInfo{
			{ID: "h1", RSAddr: "h1:9001"},
			{ID: "h2", RSAddr: "h2:9001"},
		}
		start := s.Elapsed()
		res = Broker(s, n.Node("frontal"), cands,
			proto.Reserve{Key: "k", Submitter: submitter()}, time.Second)
		took = s.Elapsed() - start
		rs1.Close()
	})
	s.Wait()
	if len(res.Offers) != 1 || res.Offers[0].Peer.ID != "h1" {
		t.Fatalf("offers = %+v", res.Offers)
	}
	if len(res.Dead) != 1 || res.Dead[0].ID != "h2" {
		t.Fatalf("dead = %+v", res.Dead)
	}
	if took > 5*time.Second {
		t.Fatalf("broker took %v; refused dial should fail fast", took)
	}
}

func TestBrokerLargeFanOut(t *testing.T) {
	const k = 120
	hosts := []string{"frontal"}
	for i := 0; i < k; i++ {
		hosts = append(hosts, fmt.Sprintf("h%03d", i))
	}
	s, n := world(t, hosts...)
	var services []*Service
	for _, h := range hosts[1:] {
		services = append(services, New(s, n.Node(h), Config{Addr: h + ":9001", J: 1, P: 2}))
	}
	var res BrokerResult
	s.Go("main", func() {
		for _, rs := range services {
			rs.Start()
		}
		var cands []proto.PeerInfo
		for _, h := range hosts[1:] {
			cands = append(cands, proto.PeerInfo{ID: h, RSAddr: h + ":9001"})
		}
		res = Broker(s, n.Node("frontal"), cands,
			proto.Reserve{Key: "k", Submitter: submitter(), N: k}, 5*time.Second)
		for _, rs := range services {
			rs.Close()
		}
	})
	s.Wait()
	if len(res.Offers) != k {
		t.Fatalf("offers = %d/%d (dead=%d refused=%d)", len(res.Offers), k, len(res.Dead), len(res.Refused))
	}
}
