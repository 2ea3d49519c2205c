package overlay

import (
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// RegisterRaw performs the Register exchange and returns the raw reply
// (a PeerList, or a federation's ShardRedirect) for the caller to decode
// and release; forced asks a foreign shard to foster self.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func RegisterRaw(net transport.Network, snAddr string, self proto.PeerInfo, forced bool, timeout time.Duration) (transport.Message, error) {
	return transport.RequestReply(net, snAddr,
		transport.Message{Payload: proto.MustMarshal(&proto.Register{Peer: self, Forced: forced})}, timeout)
}

// RegisterWithInto registers self and appends the host list to dst.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func RegisterWithInto(net transport.Network, snAddr string, self proto.PeerInfo, timeout time.Duration, dst []proto.PeerInfo) ([]proto.PeerInfo, error) {
	reply, err := RegisterRaw(net, snAddr, self, false, timeout)
	return peerListInto(dst, reply, err)
}

// FetchFrom retrieves the supernode's host list.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func FetchFrom(net transport.Network, snAddr string, timeout time.Duration) ([]proto.PeerInfo, error) {
	return FetchFromInto(net, snAddr, timeout, nil)
}

// FetchFromInto is FetchFrom appending to dst.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func FetchFromInto(net transport.Network, snAddr string, timeout time.Duration, dst []proto.PeerInfo) ([]proto.PeerInfo, error) {
	reply, err := transport.RequestReply(net, snAddr, transport.Message{Payload: proto.MustMarshal(&proto.FetchPeers{})}, timeout)
	return peerListInto(dst, reply, err)
}

// peerListInto decodes a host-list reply into dst and releases it.
func peerListInto(dst []proto.PeerInfo, reply transport.Message, err error) ([]proto.PeerInfo, error) {
	if err != nil {
		return dst, err
	}
	defer reply.Release()
	return proto.UnmarshalPeerList(reply.Payload, dst)
}
