package proto

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, msg any, want Type) any {
	t.Helper()
	b, err := Marshal(msg)
	if err != nil {
		t.Fatalf("marshal %T: %v", msg, err)
	}
	tp, got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", msg, err)
	}
	if tp != want {
		t.Fatalf("type = %v, want %v", tp, want)
	}
	if !reflect.DeepEqual(msg, got) {
		t.Fatalf("round trip of %T:\n got %+v\nwant %+v", msg, got, msg)
	}
	return got
}

func TestRoundTripAll(t *testing.T) {
	pi := PeerInfo{ID: "grelon-1.nancy", Site: "nancy",
		MPDAddr: "grelon-1.nancy:9000", RSAddr: "grelon-1.nancy:9001"}
	roundTrip(t, &Register{Peer: pi}, TRegister)
	roundTrip(t, &PeerList{Peers: []PeerInfo{pi, {ID: "x"}}}, TPeerList)
	roundTrip(t, &PeerList{}, TPeerList)
	roundTrip(t, &Alive{ID: "grelon-1.nancy"}, TAlive)
	roundTrip(t, &AliveAck{}, TAliveAck)
	roundTrip(t, &FetchPeers{}, TFetchPeers)
	roundTrip(t, &Ping{Nonce: 0xABCDEF}, TPing)
	roundTrip(t, &Pong{Nonce: 42}, TPong)
	roundTrip(t, &Reserve{Key: "k", JobID: "j", Submitter: pi, N: 600}, TReserve)
	roundTrip(t, &ReserveOK{Key: "k", P: 4}, TReserveOK)
	roundTrip(t, &ReserveNOK{Key: "k", Reason: "J exceeded"}, TReserveNOK)
	roundTrip(t, &Cancel{Key: "k"}, TCancel)
	roundTrip(t, &CancelAck{Key: "k"}, TCancelAck)
	roundTrip(t, &Prepare{
		Key: "k", JobID: "j", Program: "hostname", Args: []string{"-v"},
		N: 3, R: 2,
		Table: []Slot{
			{Rank: 0, Replica: 0, Global: 0, HostID: "h0", Addr: "h0:40000"},
			{Rank: 0, Replica: 1, Global: 3, HostID: "h1", Addr: "h1:40003"},
		},
		SubmitterMPD: "frontal.nancy:9000",
		Deadline:     90 * time.Second,
		Preemptable:  true,
	}, TPrepare)
	roundTrip(t, &Ready{Key: "k", OK: true}, TReady)
	roundTrip(t, &Ready{Key: "k", OK: false, Reason: "bad key"}, TReady)
	roundTrip(t, &Start{Key: "k"}, TStart)
	roundTrip(t, &StartAck{Key: "k"}, TStartAck)
	roundTrip(t, &JobDone{JobID: "j", HostID: "h0", Results: []SlotResult{
		{Rank: 0, Replica: 0, OK: true, Output: []byte("grelon-1.nancy")},
		{Rank: 1, Replica: 0, OK: false, Err: "panic"},
	}}, TJobDone)
}

// pinnedPrepare is one fixed Prepare and pinnedPrepareHex its wire
// image: a frame whose bytes move (the five reserved varints dropped,
// say) moves every simulated launch.
func pinnedPrepare() *Prepare {
	return &Prepare{
		Key: "k1", JobID: "job-7", Program: "ep", Args: []string{"-class", "B"},
		N: 2, R: 1,
		Table: []Slot{
			{Rank: 0, Replica: 0, Global: 0, HostID: "grelon-1.nancy", Addr: "grelon-1.nancy:40000"},
			{Rank: 1, Replica: 0, Global: 1, HostID: "azur-3.sophia", Addr: "azur-3.sophia:40001"},
		},
		SubmitterMPD: "frontal.nancy:9000",
		Deadline:     90 * time.Second,
		Preemptable:  true,
	}
}

const pinnedPrepareHex = "0d046b310a6a6f622d37046570040c2d636c61737302420402" +
	"040000001c6772656c6f6e2d312e6e616e6379286772656c6f6e2d312e6e616e63793a3430303030" +
	"0200021a617a75722d332e736f7068696126617a75722d332e736f706869613a3430303031" +
	"2466726f6e74616c2e6e616e63793a39303030" +
	"8090d8c69e05" + // Deadline
	"0000000000" + // reserved
	"01" // Preemptable

func TestPrepareWireImage(t *testing.T) {
	got := hex.EncodeToString(MustMarshal(pinnedPrepare()))
	if got != pinnedPrepareHex {
		t.Fatalf("Prepare wire image moved:\n got %s\nwant %s", got, pinnedPrepareHex)
	}
}

// TestPrepareFromOlderPeer: a Prepare whose reserved varints are set, as
// a peer that still sent collective selectors frames it, decodes to the
// same message and re-marshals with the reserved varints zeroed.
func TestPrepareFromOlderPeer(t *testing.T) {
	_, msg, err := Unmarshal(olderPeerPrepare())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(msg, pinnedPrepare()) {
		t.Fatalf("decoded %+v\nwant %+v", msg, pinnedPrepare())
	}
	if b := MustMarshal(msg); !bytes.Equal(b, MustMarshal(pinnedPrepare())) {
		t.Fatalf("re-marshal = %x, want %s", b, pinnedPrepareHex)
	}
}

func TestEmptySlicesSurvive(t *testing.T) {
	// Prepare with empty table and args must round trip to empty (not nil
	// mismatch panics in reflect.DeepEqual — so we compare fields).
	m := &Prepare{Key: "k", JobID: "j", Program: "p", N: 1, R: 1}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	p := got.(*Prepare)
	if len(p.Table) != 0 || len(p.Args) != 0 || p.Key != "k" {
		t.Fatalf("got %+v", p)
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	if _, _, err := Unmarshal([]byte{0xFF}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestMarshalUnknownStruct(t *testing.T) {
	if _, err := Marshal(struct{}{}); err == nil {
		t.Fatal("unknown struct accepted")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	b := MustMarshal(&Ping{Nonce: 1})
	b = append(b, 0xAA)
	if _, _, err := Unmarshal(b); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestFuzzUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if TReserve.String() != "reserve" || Type(200).String() != "type(200)" {
		t.Fatal("type names wrong")
	}
}
