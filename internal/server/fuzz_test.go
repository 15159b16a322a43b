package server

import (
	"bytes"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/rpc"
)

// FuzzServerDispatch feeds one arbitrary datagram to two servers with the
// same preload: one through the inline entry the readers use
// (PeekCallHeader → FastEligible → HandleCallFast), the other through the
// nfsd entry (HandleCall). Neither may panic, and whenever the inline entry
// accepts the call the two replies must be byte-identical.
func FuzzServerDispatch(f *testing.F) {
	_, root, file, link := dispatchFixture(f)
	for _, c := range equivCases(root, file, link) {
		f.Add(c.wire)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		inline, _, _, _ := dispatchFixture(t)
		nfsd, _, _, _ := dispatchFixture(t)
		const peer = "udp:127.0.0.1:9999"
		var (
			fast   []byte
			fastOK bool
			h      rpc.PeekedCall
		)
		if argOff, ok := rpc.PeekCallHeader(wire, &h); ok && FastEligible(&h) {
			fast, fastOK = inline.HandleCallFast(peer, wire, &h, argOff, make([]byte, 0, FastReplyMax), nil)
		}
		var generic []byte
		if rep := nfsd.HandleCall(nil, peer, mbuf.FromBytes(wire)); rep != nil {
			generic = rep.Bytes()
			rep.Free()
		}
		if fastOK && !bytes.Equal(fast, generic) {
			t.Errorf("entries diverge on %x\n inline %x\n nfsd   %x", wire, fast, generic)
		}
	})
}
