// Package mpi is the MPJ-like message-passing library of P2P-MPI (§3.1):
// an MPI-style API over the transport abstraction, so the same programs
// run on real TCP sockets and inside the virtual-time Grid'5000 model.
//
// Features exercised by the paper and implemented here:
//
//   - point-to-point Send/Recv with tags and wildcards;
//   - the collectives NAS IS and EP need (Barrier, Bcast, Reduce,
//     Allreduce, Gather, Allgather, Scatter, Alltoall, Alltoallv, Scan),
//     one schedule each: binomial-tree Bcast and Reduce,
//     recursive-doubling Allreduce, ring Allgather and pairwise
//     Alltoall(v);
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
// it runs on the inbound connection's reader goroutine.
//
// A virtual-size message costs an index lookup, no map and no
// allocation: Join indexes the slot table once (rank × replica → table
// position), connections sit in a slice by table position, envelopes
// reach the inbox in recycled carriers, and the rank thread encodes
// frames into one scratch buffer (Send keeps no reference to a payload).
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"p2pmpi/internal/proto"
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

// Slot describes one process of the application: its logical rank, its
// replica index, its job-wide slot number and where it listens. It is
// the launch table's row as the Prepare frame carries it, so a hosting
// daemon joins with the decoded table itself.
type Slot = proto.Slot

// Status describes a received message's envelope.
type Status struct {
	Source int
	Tag    int
}

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
}

// The replica heartbeat and failure detector (timer chains, armed only
// when R > 1) and lazy connection setup run on fixed timings: a beat
// every heartbeatInterval, a detector round every failTimeout/2, and up
// to dialRetries dials with a backoff doubling from dialBackoff.
const (
	heartbeatInterval = 200 * time.Millisecond
	failTimeout       = time.Second
	dialRetries       = 10
	dialBackoff       = 20 * time.Millisecond
)

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

// encodeEnvelope encodes ev as one frame in *scratch, growing it if
// too small.
func encodeEnvelope(scratch *[]byte, ev *envelope) transport.Message {
	n := headerLen + len(ev.data.Bytes)
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
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
