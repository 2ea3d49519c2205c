package proto

import (
	"fmt"

	"p2pmpi/internal/wire"
)

// AppendPeerListFrame encodes a TPeerList frame of count entries taken
// from peers starting at index start (wrapping modulo len(peers)),
// field by field. The supernode replies with AppendPeerListImage.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func AppendPeerListFrame(dst []byte, peers []PeerInfo, start, count int) []byte {
	var e wire.Encoder
	e.Reset(dst)
	e.U8(uint8(TPeerList))
	e.Int(count)
	for i := 0; i < count; i++ {
		peers[(start+i)%len(peers)].encode(&e)
	}
	return e.Bytes()
}

// UnmarshalPeerList decodes a TPeerList frame, appending the entries to
// dst (reusing its capacity) with one string copy for the whole list.
// Receivers read host lists in place (ReadPeerList).
// Kept for bench/; ROADMAP item 1(v) deletes it.
func UnmarshalPeerList(b []byte, dst []PeerInfo) ([]PeerInfo, error) {
	d := wire.NewDecoder(b)
	if t := Type(d.U8()); t != TPeerList {
		return dst, fmt.Errorf("proto: expected peerlist, got %v", t)
	}
	n := d.Int()
	if n < 0 || n > d.Remaining() {
		return dst, wire.ErrCorrupt
	}
	d.InternStrings()
	for i := 0; i < n; i++ {
		dst = append(dst, decodePeerInfo(d))
	}
	return dst, d.Finish()
}
