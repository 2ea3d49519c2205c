// Package proto defines the control-plane messages of the P2P-MPI
// middleware and their binary encoding: supernode membership (register,
// alive, fetch), MPD peer pings, the RS reservation handshake and the
// two-phase job launch. One frame carries one message; the first byte is
// the message type.
package proto

import (
	"fmt"
	"time"

	"p2pmpi/internal/wire"
)

// Type identifies a control message.
type Type uint8

// Control message types.
const (
	TInvalid Type = iota
	// Supernode membership.
	TRegister
	TPeerList
	TAlive
	TAliveAck
	TFetchPeers
	// MPD latency probe (the paper's application-level "ping").
	TPing
	TPong
	// Reservation Service brokering (§4.2 steps 3-5).
	TReserve
	TReserveOK
	TReserveNOK
	TCancel
	TCancelAck
	// Two-phase job launch (§4.2 steps 6-8).
	TPrepare
	TReady
	TStart
	TStartAck
	// Completion report back to the submitter.
	TJobDone
	// Mid-run failure detection: job-level heartbeat.
	TJobPing
	TJobPong
	// Federated supernode tier: gossip digest exchange between shards
	// and the registration redirect toward a peer's home shard.
	TDigest
	TShardDelta
	TShardRedirect
	// Preemption: checkpoint-kill a running preemptable job.
	TKillJob
	TKillAck
)

// String returns the mnemonic of the message type.
func (t Type) String() string {
	names := [...]string{"invalid", "register", "peerlist", "alive",
		"aliveack", "fetchpeers", "ping", "pong", "reserve", "reserveok",
		"reservenok", "cancel", "cancelack", "prepare", "ready", "start",
		"startack", "jobdone", "jobping", "jobpong",
		"digest", "sharddelta", "shardredirect", "killjob", "killack"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// PeerInfo advertises one peer: its identity and service addresses.
type PeerInfo struct {
	ID      string // host identity (e.g. "grelon-12.nancy")
	Site    string // site name, for reporting only
	MPDAddr string // where the MPD listens
	RSAddr  string // where the Reservation Service listens
}

func (p PeerInfo) encode(e *wire.Encoder) {
	e.String(p.ID).String(p.Site).String(p.MPDAddr).String(p.RSAddr)
}

func decodePeerInfo(d *wire.Decoder) PeerInfo {
	return PeerInfo{ID: d.String(), Site: d.String(), MPDAddr: d.String(), RSAddr: d.String()}
}

// Register announces a peer to the supernode; the reply is a PeerList
// (or, in a federation, a ShardRedirect toward the peer's home shard).
type Register struct {
	Peer PeerInfo
	// Forced marks a failover registration: the peer's home-shard
	// supernode is unreachable and it is asking this (foreign) shard to
	// foster it. An unforced Register at the wrong shard is answered
	// with a ShardRedirect instead of being accepted.
	Forced bool
}

// PeerList is the supernode's host list snapshot.
type PeerList struct {
	Peers []PeerInfo
}

// Alive refreshes a peer's last-seen stamp; the reply is AliveAck.
type Alive struct {
	ID string
}

// AliveAck acknowledges an Alive. Known reports whether the answering
// supernode actually lists the peer: a false answer tells the sender
// its entry expired (or lives on another shard) and an immediate
// re-registration is worth more than waiting for the next full
// re-register tick.
type AliveAck struct {
	Known bool
}

// FetchPeers requests a fresh PeerList.
type FetchPeers struct{}

// Ping is the application-level latency probe (§4.1: not ICMP).
type Ping struct {
	Nonce uint64
}

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce uint64
}

// Reserve asks a remote RS to hold one slot of its host for a job,
// identified by a unique hash key (§4.2 step 3).
type Reserve struct {
	Key       string
	JobID     string
	Submitter PeerInfo
	// N is the total process count of the application; the remote host
	// uses it to report its capped capacity.
	N int
}

// ReserveOK grants a reservation and reports the host's P setting
// (§4.2 step 4).
type ReserveOK struct {
	Key string
	P   int
}

// ReserveNOK declines a reservation.
type ReserveNOK struct {
	Key    string
	Reason string
}

// Cancel releases a reservation that will not be used (§4.2 step 6).
type Cancel struct {
	Key string
}

// CancelAck acknowledges a Cancel.
type CancelAck struct {
	Key string
}

// Slot describes one MPI process placement in the launch table.
type Slot struct {
	// Rank is the MPI rank (0..N-1); Replica its copy number (0..R-1).
	Rank    int
	Replica int
	// Global is the job-wide slot index (0..N*R-1), used to derive the
	// process's listen port.
	Global int
	// HostID is the peer hosting this slot; Addr is where the process
	// will listen for MPI traffic.
	HostID string
	Addr   string
}

func (s Slot) encode(e *wire.Encoder) {
	e.Int(s.Rank).Int(s.Replica).Int(s.Global).String(s.HostID).String(s.Addr)
}

func decodeSlot(d *wire.Decoder) Slot {
	return Slot{Rank: d.Int(), Replica: d.Int(), Global: d.Int(),
		HostID: d.String(), Addr: d.String()}
}

// Prepare is phase one of the launch (§4.2 steps 6-7): the remote MPD
// verifies the key against its RS, checks its gatekeeper limits, starts
// the local processes' listeners and replies Ready.
type Prepare struct {
	Key     string
	JobID   string
	Program string
	Args    []string
	N, R    int
	// Table is the full placement; each MPD picks the slots whose HostID
	// matches its own.
	Table []Slot
	// SubmitterMPD is where JobDone must be reported.
	SubmitterMPD string
	// Deadline bounds the whole job in virtual/real time (0 = none).
	Deadline time.Duration
	// Preemptable marks the job killable mid-run: the hosting MPD arms
	// a kill channel per local process so a later KillJob can
	// checkpoint-stop it (scheduler-driven preemption).
	Preemptable bool
}

// Ready is the Prepare response.
type Ready struct {
	Key    string
	OK     bool
	Reason string
}

// Start is phase two: all hosts reported Ready, run the program.
type Start struct {
	Key string
}

// StartAck acknowledges a Start.
type StartAck struct {
	Key string
}

// SlotResult carries one process's outcome and captured output.
type SlotResult struct {
	Rank    int
	Replica int
	OK      bool
	Err     string
	Output  []byte
}

// JobDone reports the completion of all of one host's slots.
type JobDone struct {
	JobID   string
	HostID  string
	Results []SlotResult
}

// JobPing asks an MPD whether it still hosts a given job — the mid-run
// failure detector's process-level heartbeat. A transport-level Ping
// cannot distinguish a healthy host from one that crashed and rebooted
// mid-run: the reboot restarts the daemon but not the processes, so
// only the hosting MPD's own job table can answer.
type JobPing struct {
	Nonce uint64
	JobID string
}

// JobPong answers a JobPing; Known reports whether the job is still
// alive on the answering host.
type JobPong struct {
	Nonce uint64
	Known bool
}

// Digest opens one gossip exchange between federation members: the
// sender's shard index and the membership version it knows for every
// shard (its own version is authoritative; the others are whatever its
// snapshots carry, zero when it has none). The reply is a ShardDelta
// holding a snapshot of every shard the sender trails on.
type Digest struct {
	From     int
	Versions []uint64
}

// ShardState is one shard's membership snapshot inside a ShardDelta:
// the registrar's shard index, the version of its owned set, the
// wall/virtual instant (unix nanoseconds) at which that version was
// created by its owner — forwarded unchanged through transitive gossip
// so receivers can measure propagation staleness — and the entries
// themselves with their last-seen stamps (unix nanoseconds, used to
// break ties when a host transiently appears in two shards during a
// failover).
type ShardState struct {
	Shard   int
	Version uint64
	Stamp   int64
	Peers   []PeerInfo
	Seen    []int64
	// Image, when set and as long as Peers, is the wire image of Peers:
	// the encoder copies each entry from it and appends the stamp. The
	// sender's owned table keeps one; decoded states never carry one.
	Image *PeerImage
}

// ShardDelta answers a Digest: one ShardState per shard on which the
// digest's sender was behind the replier's knowledge. An empty delta
// means the peers agree.
type ShardDelta struct {
	Shards []ShardState
}

// ShardRedirect answers an unforced Register that arrived at the wrong
// shard: the peer's home shard index and the address of the supernode
// that owns it.
type ShardRedirect struct {
	Shard int
	Addr  string
}

// KillJob asks an MPD to checkpoint-kill its local slots of a running
// preemptable job, identified by the launch key. An unknown key — the
// job already finished, or the host crashed and rebooted — is
// acknowledged anyway: the kill is idempotent.
type KillJob struct {
	Key string
}

// KillAck acknowledges a KillJob.
type KillAck struct {
	Key string
}
