package server

import (
	"bytes"
	"fmt"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// encodeWire flattens one RPC call to the raw datagram bytes the UDP
// readers would peek at.
func encodeWire(xid, prog, vers, proc uint32, args func(e *xdr.Encoder)) []byte {
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	wire := append([]byte(nil), req.Bytes()...)
	req.Free()
	return wire
}

// fastReply runs wire through the shallow path. ok=false means it punted
// to the generic path.
func fastReply(t *testing.T, s *Server, peer string, wire []byte) ([]byte, bool) {
	t.Helper()
	var h rpc.PeekedCall
	argOff, okPeek := rpc.PeekCallHeader(wire, &h)
	if !okPeek {
		t.Fatalf("PeekCallHeader refused a well-formed call")
	}
	if !FastEligible(&h) {
		t.Fatalf("proc %d/%d/%d not fast-eligible", h.Prog, h.Vers, h.Proc)
	}
	out := make([]byte, 0, FastReplyMax)
	return s.HandleCallFast(peer, wire, &h, argOff, out, nil)
}

// genericReply runs wire through the full dispatch path.
func genericReply(t *testing.T, s *Server, peer string, wire []byte) []byte {
	t.Helper()
	rep := s.HandleCall(nil, peer, mbuf.FromBytes(wire))
	if rep == nil {
		t.Fatal("generic path returned nil reply")
	}
	b := append([]byte(nil), rep.Bytes()...)
	rep.Free()
	return b
}

// assertEquiv services wire on both paths — shallow first, so it sees the
// same cache state — and pins the replies byte-for-byte.
func assertEquiv(t *testing.T, s *Server, peer, label string, wire []byte) {
	t.Helper()
	fb, okFast := fastReply(t, s, peer, wire)
	if !okFast {
		t.Fatalf("%s: fast path refused an eligible call", label)
	}
	gb := genericReply(t, s, peer, wire)
	if !bytes.Equal(fb, gb) {
		t.Errorf("%s: replies diverge\n fast    %x\n generic %x", label, fb, gb)
	}
}

// dispatchFixture builds the preload the two-entry tests replay against:
// a file f, a symlink ln -> f and 40 more files under the root. Inode
// numbers and the logical file clock are deterministic, so two fixtures
// hand out identical handles and attributes.
func dispatchFixture(tb testing.TB) (s *Server, root, file, link nfsproto.FH) {
	tb.Helper()
	fs := memfs.New(1, nil, nil)
	s = New(fs, Reno())
	f, err := fs.Create(nil, fs.Root(), "f", 0644)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := fs.Create(nil, fs.Root(), fmt.Sprintf("bulk-%02d", i), 0644); err != nil {
			tb.Fatal(err)
		}
	}
	ln, err := fs.Symlink(nil, fs.Root(), "ln", "f", 0777)
	if err != nil {
		tb.Fatal(err)
	}
	return s, s.RootFH(), fs.FH(f), fs.FH(ln)
}

// equivCase is one call of the two-entry equivalence suite.
type equivCase struct {
	label string
	wire  []byte
}

// equivCases lists every bounded procedure, with its error paths, against
// a dispatchFixture's handles — the equivalence suite's calls and the
// FuzzServerDispatch seeds.
func equivCases(root, fileFH, linkFH nfsproto.FH) []equivCase {
	var stale nfsproto.FH
	stale[0] = 0xde
	stale[31] = 0xad
	var cases []equivCase
	nfs := func(label string, xid, proc uint32, args func(e *xdr.Encoder)) {
		cases = append(cases, equivCase{label, encodeWire(xid, nfsproto.Program, nfsproto.Version, proc, args)})
	}
	mnt := func(label string, xid, proc uint32, args func(e *xdr.Encoder)) {
		cases = append(cases, equivCase{label, encodeWire(xid, nfsproto.MountProgram, nfsproto.MountVersion, proc, args)})
	}
	fh := func(fh nfsproto.FH) func(e *xdr.Encoder) {
		return func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fh}).Encode(e) }
	}
	dirop := func(dir nfsproto.FH, name string) func(e *xdr.Encoder) {
		return func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e) }
	}
	readdir := func(dir nfsproto.FH, cookie, count uint32) func(e *xdr.Encoder) {
		return func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: dir, Cookie: cookie, Count: count}).Encode(e)
		}
	}

	nfs("null", 101, nfsproto.ProcNull, nil)
	nfs("getattr ok", 102, nfsproto.ProcGetattr, fh(fileFH))
	nfs("getattr stale", 103, nfsproto.ProcGetattr, fh(stale))
	nfs("lookup ok", 104, nfsproto.ProcLookup, dirop(root, "f"))
	// Twice: the second pass answers from the name cache on both paths.
	nfs("lookup cached", 105, nfsproto.ProcLookup, dirop(root, "f"))
	// ENOENT twice: the second pass hits the negative name cache.
	nfs("lookup enoent", 106, nfsproto.ProcLookup, dirop(root, "missing"))
	nfs("lookup negcache", 107, nfsproto.ProcLookup, dirop(root, "missing"))
	nfs("lookup notdir", 108, nfsproto.ProcLookup, dirop(fileFH, "x"))
	nfs("lookup stale dir", 109, nfsproto.ProcLookup, dirop(stale, "f"))
	nfs("readdir full", 110, nfsproto.ProcReaddir, readdir(root, 0, 2048))
	// A small budget truncates the listing (eof=false) identically.
	nfs("readdir truncated", 111, nfsproto.ProcReaddir, readdir(root, 0, 256))
	// Resume from a mid-listing cookie.
	nfs("readdir cookie", 112, nfsproto.ProcReaddir, readdir(root, 7, 512))
	nfs("readdir notdir", 113, nfsproto.ProcReaddir, readdir(fileFH, 0, 512))
	nfs("readdir stale", 114, nfsproto.ProcReaddir, readdir(stale, 0, 512))
	nfs("statfs", 115, nfsproto.ProcStatfs, fh(root))
	nfs("setattr ok", 116, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		sa := nfsproto.NewSattr()
		sa.Mode = 0600
		(&nfsproto.SetattrArgs{File: fileFH, Attr: sa}).Encode(e)
	})
	nfs("setattr stale", 117, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		(&nfsproto.SetattrArgs{File: stale, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	nfs("readlink ok", 118, nfsproto.ProcReadlink, fh(linkFH))
	nfs("readlink notlink", 119, nfsproto.ProcReadlink, fh(fileFH))
	nfs("readlink stale", 131, nfsproto.ProcReadlink, fh(stale))
	mnt("mount null", 120, nfsproto.MountProcNull, nil)
	mnt("mnt ok", 121, nfsproto.MountProcMnt, func(e *xdr.Encoder) {
		(&nfsproto.MntArgs{DirPath: "/"}).Encode(e)
	})
	mnt("mnt enoent", 122, nfsproto.MountProcMnt, func(e *xdr.Encoder) {
		(&nfsproto.MntArgs{DirPath: "/no-such-export"}).Encode(e)
	})
	return cases
}

// TestFastPathReplyEquivalence pins the inline entry's replies
// byte-for-byte against the nfsd entry's for every bounded procedure,
// including the error paths. Both run the same handlers; what this checks
// is the entries around them — argument staging, the reply header, the
// dupcache discipline and the chain copy-out.
//
// SETATTR is non-idempotent: the inline entry commits its reply to the
// dupcache, so assertEquiv's nfsd pass (same peer, same xid) is a
// retransmission and must replay the inline reply verbatim. That replay
// IS the equivalence being pinned — a fresh execution would advance ctime
// and legitimately differ.
func TestFastPathReplyEquivalence(t *testing.T) {
	s, root, fileFH, linkFH := dispatchFixture(t)
	const peer = "udp:127.0.0.1:9999"
	for _, c := range equivCases(root, fileFH, linkFH) {
		assertEquiv(t, s, peer, c.label, c.wire)
	}
}

// TestBoundedReplyChainsSmall pins the nfsd entry's reply shape: a bounded
// reply copied out of the flat handler region lands in small mbufs only,
// as the field-by-field encoder built it, because the NIC model charges
// page remapping per cluster.
func TestBoundedReplyChainsSmall(t *testing.T) {
	s, root, fileFH, linkFH := dispatchFixture(t)
	cases := equivCases(root, fileFH, linkFH)
	cases = append(cases, equivCase{"readdir 8k window", encodeWire(140, nfsproto.Program,
		nfsproto.Version, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: root, Count: nfsproto.MaxData}).Encode(e)
		})})
	for _, c := range cases {
		rep := s.HandleCall(nil, "p", mbuf.FromBytes(c.wire))
		if rep == nil {
			t.Fatalf("%s: no reply", c.label)
		}
		if n, _ := rep.Clusters(); n != 0 {
			t.Errorf("%s: %d-byte reply holds %d cluster(s)", c.label, rep.Len(), n)
		}
		rep.Free()
	}
}

// TestFastPathDupcacheIndependence pins that an idempotent call on the
// inline entry neither reads nor pollutes the sharded dupcache (which is
// keyed by procedure as well as xid): a GETATTR reusing a CREATE's xid must
// still be serviced fresh and byte-identically by both entries, and the
// cached CREATE reply must survive for a real retransmit.
func TestFastPathDupcacheIndependence(t *testing.T) {
	s := newServer()
	root := s.RootFH()
	const peer = "udp:10.0.0.1:700"
	const xid = 777

	createWire := encodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcCreate,
		func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: root, Name: "dup-f"},
				Attr: nfsproto.NewSattr()}).Encode(e)
		})
	createRep := genericReply(t, s, peer, createWire)

	// Same xid, same peer, idempotent proc: both paths must run it fresh
	// (never replay the CREATE reply) and agree byte-for-byte.
	fileFH := mustLookup(t, s, root, "dup-f").File
	gaWire := encodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcGetattr,
		func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fileFH}).Encode(e) })
	fb, ok := fastReply(t, s, peer, gaWire)
	if !ok {
		t.Fatal("fast path refused GETATTR with a dupcache-resident xid")
	}
	gb := genericReply(t, s, peer, gaWire)
	if !bytes.Equal(fb, gb) {
		t.Errorf("xid-colliding GETATTR diverges:\n fast    %x\n generic %x", fb, gb)
	}
	if bytes.Equal(fb, createRep) {
		t.Error("fast GETATTR replayed the cached CREATE reply")
	}

	// The CREATE's cache entry must be intact: a true retransmit replays it.
	if replay := genericReply(t, s, peer, createWire); !bytes.Equal(replay, createRep) {
		t.Errorf("CREATE retransmit not replayed verbatim after fast-path traffic:\n got  %x\n want %x", replay, createRep)
	}
	if hits := s.cDupHits.Value(); hits == 0 {
		t.Error("CREATE retransmit produced no dupcache hit")
	}
}

// TestFastPathFallbacks pins the no-side-effects punt contract: calls the
// classifier admits but HandleCallFast cannot finish return ok=false with
// zero counter movement, and payload procedures never classify as fast.
func TestFastPathFallbacks(t *testing.T) {
	s := newServer()
	root := s.RootFH()

	for _, proc := range []uint32{nfsproto.ProcRead, nfsproto.ProcWrite,
		nfsproto.ProcCreate, nfsproto.ProcRemove} {
		h := rpc.PeekedCall{Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc}
		if FastEligible(&h) {
			t.Errorf("payload proc %d classified fast-eligible", proc)
		}
	}
	h := rpc.PeekedCall{Prog: nfsproto.Program, Vers: nfsproto.Version + 1, Proc: nfsproto.ProcNull}
	if FastEligible(&h) {
		t.Error("wrong-version NULL classified fast-eligible")
	}

	punt := func(label string, wire []byte) {
		t.Helper()
		var h rpc.PeekedCall
		argOff, okPeek := rpc.PeekCallHeader(wire, &h)
		if !okPeek || !FastEligible(&h) {
			t.Fatalf("%s: call did not reach HandleCallFast", label)
		}
		before := s.cCalls.Value()
		bytesIn := s.cBytesIn.Value()
		rep, ok := s.HandleCallFast("p", wire, &h, argOff, make([]byte, 0, FastReplyMax), nil)
		if ok || rep != nil {
			t.Errorf("%s: fast path serviced a call that must punt", label)
		}
		if s.cCalls.Value() != before || s.cBytesIn.Value() != bytesIn {
			t.Errorf("%s: punted call moved counters", label)
		}
	}

	full := encodeWire(300, nfsproto.Program, nfsproto.Version, nfsproto.ProcLookup,
		func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: root, Name: "f"}).Encode(e) })
	punt("truncated lookup", full[:len(full)-6])
	punt("readdir zero count", encodeWire(301, nfsproto.Program, nfsproto.Version,
		nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: root, Count: 0}).Encode(e)
		}))
	punt("readdir oversized window", encodeWire(302, nfsproto.Program, nfsproto.Version,
		nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: root, Count: nfsproto.MaxData}).Encode(e)
		}))

	// The punted datagrams must still be serviceable by the generic path.
	if rep := genericReply(t, s, "p", full); len(rep) == 0 {
		t.Error("generic path failed the fallback datagram")
	}
}
