// Package mpi is the MPJ-like message-passing library of P2P-MPI (§3.1):
// an MPI-style API over the transport abstraction, so the same programs
// run on real TCP sockets and inside the virtual-time Grid'5000 model.
//
// Features exercised by the paper and implemented here:
//
//   - point-to-point Send/Recv with tags and wildcards;
//   - the collectives NAS IS and EP need (Barrier, Bcast, Reduce,
//     Allreduce, Gather, Allgather, Scatter, Alltoall, Alltoallv, Scan)
//     with selectable algorithms (linear / binomial tree / recursive
//     doubling / ring / pairwise) for the ablation benchmarks;
//   - transparent process replication (§3.2 "fault tolerance"): with
//     replication degree r > 1 the group leader transmits, backups log,
//     heartbeat failure detection promotes a backup, and receivers
//     deduplicate by sequence number — user programs are unchanged;
//   - virtual payloads: a message can declare its modelled size without
//     carrying bytes, which the simulator charges for transfer time.
//     This is how Class-B NAS runs execute without gigabytes of RAM.
//
// Inbound frames are served with transport.Serve: Comm.deliver decodes
// one frame and pushes the envelope to the process's inbox. In the
// simulator it runs inside the delivery event — a message costs one
// hand-off, event → rank, and a rank holds no actor per peer; over TCP
// the same handler sits in a Recv loop per inbound connection.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches any user tag.
	AnyTag = -1
)

// MPI errors.
var (
	// ErrClosed is returned on operations after Close.
	ErrClosed = errors.New("mpi: communicator closed")
	// ErrInvalidRank is returned for out-of-range ranks.
	ErrInvalidRank = errors.New("mpi: invalid rank")
	// ErrTimeout is returned by RecvTimeout.
	ErrTimeout = errors.New("mpi: receive timeout")
)

// Data is one message body: real bytes, a modelled size, or both.
type Data struct {
	Bytes   []byte
	Virtual int64
}

// Size returns the modelled on-wire size of the data.
func (d Data) Size() int64 { return int64(len(d.Bytes)) + d.Virtual }

// Slot describes one process of the application: its logical rank, its
// replica index, its job-wide slot number and where it listens.
type Slot struct {
	Rank    int
	Replica int
	Global  int
	HostID  string
	Addr    string
}

// Status describes a received message's envelope.
type Status struct {
	Source int
	Tag    int
}

// Algorithms selects collective implementations; zero values pick the
// defaults noted on each constant set.
type Algorithms struct {
	Bcast     BcastAlg
	Reduce    ReduceAlg
	Allreduce AllreduceAlg
	Allgather AllgatherAlg
	Alltoall  AlltoallAlg
}

// BcastAlg selects the broadcast algorithm.
type BcastAlg int

// Broadcast algorithms (default BcastBinomial).
const (
	BcastBinomial BcastAlg = iota // log(p) rounds down a binomial tree
	BcastLinear                   // root sends p-1 messages
)

// ReduceAlg selects the reduce algorithm.
type ReduceAlg int

// Reduce algorithms (default ReduceBinomial).
const (
	ReduceBinomial ReduceAlg = iota // binomial tree toward the root
	ReduceLinear                    // everyone sends to the root
)

// AllreduceAlg selects the allreduce algorithm.
type AllreduceAlg int

// Allreduce algorithms (default AllreduceRecursiveDoubling).
const (
	AllreduceRecursiveDoubling AllreduceAlg = iota // log(p) exchange rounds
	AllreduceReduceBcast                           // reduce to 0 then bcast
)

// AllgatherAlg selects the allgather algorithm.
type AllgatherAlg int

// Allgather algorithms (default AllgatherRing).
const (
	AllgatherRing   AllgatherAlg = iota // p-1 ring steps
	AllgatherLinear                     // gather to 0 then bcast
)

// AlltoallAlg selects the all-to-all exchange schedule.
type AlltoallAlg int

// Alltoall algorithms (default AlltoallPairwise).
const (
	AlltoallPairwise AlltoallAlg = iota // p-1 balanced exchange rounds
	AlltoallLinear                      // naive: p-1 sends then p-1 recvs
)

// Config describes one process's view of the application.
type Config struct {
	// Self is this process's slot; Slots is the full table (n×r rows).
	Self  Slot
	Slots []Slot
	// N is the logical process count; R the replication degree.
	N, R int
	// Net and RT bind the process to a transport and a clock.
	Net transport.Network
	RT  vtime.Runtime
	// Algorithms tunes collectives (zero = defaults).
	Algorithms Algorithms
	// HeartbeatInterval and FailTimeout drive the replica failure
	// detector (only used when R > 1). Defaults: 200ms / 1s.
	HeartbeatInterval time.Duration
	FailTimeout       time.Duration
	// DialRetries and DialBackoff tune lazy connection setup.
	DialRetries int
	DialBackoff time.Duration
}

// envelope kinds on the wire.
const (
	kindData      = 0
	kindHeartbeat = 1
)

// header layout: kind(1) srcRank(4) srcReplica(4) dstRank(4) seq(8) tag(8).
const headerLen = 29

type envelope struct {
	kind       byte
	srcRank    int
	srcReplica int
	dstRank    int
	seq        uint64
	tag        int
	data       Data
}

func encodeEnvelope(ev envelope) transport.Message {
	buf := make([]byte, headerLen+len(ev.data.Bytes))
	buf[0] = ev.kind
	binary.BigEndian.PutUint32(buf[1:], uint32(int32(ev.srcRank)))
	binary.BigEndian.PutUint32(buf[5:], uint32(int32(ev.srcReplica)))
	binary.BigEndian.PutUint32(buf[9:], uint32(int32(ev.dstRank)))
	binary.BigEndian.PutUint64(buf[13:], ev.seq)
	binary.BigEndian.PutUint64(buf[21:], uint64(int64(ev.tag)))
	copy(buf[headerLen:], ev.data.Bytes)
	return transport.Message{Payload: buf, Virtual: ev.data.Virtual}
}

func decodeEnvelope(m transport.Message) (envelope, error) {
	if len(m.Payload) < headerLen {
		return envelope{}, fmt.Errorf("mpi: short frame (%d bytes)", len(m.Payload))
	}
	ev := envelope{
		kind:       m.Payload[0],
		srcRank:    int(int32(binary.BigEndian.Uint32(m.Payload[1:]))),
		srcReplica: int(int32(binary.BigEndian.Uint32(m.Payload[5:]))),
		dstRank:    int(int32(binary.BigEndian.Uint32(m.Payload[9:]))),
		seq:        binary.BigEndian.Uint64(m.Payload[13:]),
		tag:        int(int64(binary.BigEndian.Uint64(m.Payload[21:]))),
	}
	if len(m.Payload) > headerLen {
		ev.data.Bytes = m.Payload[headerLen:]
	}
	ev.data.Virtual = m.Virtual
	return ev, nil
}
