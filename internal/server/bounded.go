package server

import (
	"sync"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// Bounded-reply procedures (DESIGN.md §3.4): NFS NULL, GETATTR, SETATTR,
// LOOKUP, READLINK, READDIR and STATFS and MOUNT NULL/MNT. Each has one
// implementation, below — arguments from an xdr.ByteReader, the result
// into an xdr.ByteWriter, every simulator charge made on p — reached by two
// entries that decide only where a call runs: HandleCallFast, inline on a
// real-socket reader straight from the datagram, and HandleCallSpan on an
// nfsd, which copies the request out of its chain and the reply back in.
//
// Arguments are decoded before anything is touched. When the inline entry
// cannot finish — malformed arguments, a READDIR window outside
// (0, inlineReaddirMax] — it returns ok=false with no side effects and the
// datagram goes to an nfsd, whose entry owns the GARBAGE_ARGS reply and the
// full READDIR window. Either way a call is counted and serviced once.

const (
	// FastReplyMax bounds an inline reply: a READDIR at the
	// inlineReaddirMax budget stays under 2.5 KB, every other bounded reply
	// is ≤ 128 bytes.
	FastReplyMax = 4096
	// inlineReaddirMax is the largest READDIR count argument serviced
	// inline; bigger windows (nfsproto.MaxData-sized sweeps) go to an nfsd.
	inlineReaddirMax = 2048
)

// bounded reports whether a procedure has a bounded reply, and so a
// byte-region handler.
func bounded(prog, vers, proc uint32) bool {
	if prog == nfsproto.Program && vers == nfsproto.Version {
		switch proc {
		case nfsproto.ProcNull, nfsproto.ProcGetattr, nfsproto.ProcLookup,
			nfsproto.ProcSetattr, nfsproto.ProcReadlink,
			nfsproto.ProcReaddir, nfsproto.ProcStatfs:
			return true
		}
		return false
	}
	return prog == nfsproto.MountProgram && vers == nfsproto.MountVersion &&
		(proc == nfsproto.MountProcNull || proc == nfsproto.MountProcMnt)
}

// FastEligible reports whether a peeked call may be serviced inline.
// Eligibility is by procedure only — argument-dependent limits (the
// READDIR window) are checked after decode and fall back without side
// effects.
func FastEligible(h *rpc.PeekedCall) bool { return bounded(h.Prog, h.Vers, h.Proc) }

// HandleCallFast services one fast-eligible datagram in place. req is the
// raw datagram, h/argOff the result of rpc.PeekCallHeader, out a scratch
// slice (len 0, cap ≥ FastReplyMax) the reply is appended to. It returns
// the reply bytes and ok=true; (nil, true) when the call was consumed but
// produces no reply (an in-flight non-idempotent duplicate); or
// (nil, false) — with no side effects — when the call must go to an nfsd.
// sp may be nil.
func (s *Server) HandleCallFast(peer string, req []byte, h *rpc.PeekedCall, argOff int, out []byte, sp *metrics.Span) ([]byte, bool) {
	if argOff > len(req) {
		return nil, false
	}
	var w xdr.ByteWriter
	w.ResetBytes(out)
	ok, replied := s.serveBounded(nil, peer, h.XID, h.Prog, h.Proc, req[argOff:], &w, true, sp)
	if !ok {
		return nil, false
	}
	s.cBytesIn.Add(int64(len(req)))
	if !replied {
		return nil, true
	}
	sp.Stamp(metrics.StageEncode)
	return w.Bytes(), true
}

// flatPool recycles the nfsd entry's contiguous staging: the request
// copied out of its chain, then the reply. Sized for the largest bounded
// exchange, a full nfsproto.MaxData READDIR window.
var flatPool = sync.Pool{New: func() any {
	b := make([]byte, 0, nfsproto.MaxData+FastReplyMax)
	return &b
}}

// handleBounded is HandleCallSpan's route to the byte-region handlers.
func (s *Server) handleBounded(p *sim.Proc, peer string, call *rpc.Call, req *mbuf.Chain, argOff int, sp *metrics.Span) *mbuf.Chain {
	bp := flatPool.Get().(*[]byte)
	defer flatPool.Put(bp)
	buf := *bp
	n := req.Len()
	if cap(buf) < n+FastReplyMax {
		buf = make([]byte, 0, n+FastReplyMax)
	}
	req.CopyTo(buf[:n])
	var w xdr.ByteWriter
	w.ResetBytes(buf[n:n])
	if _, replied := s.serveBounded(p, peer, call.XID, call.Prog, call.Proc, buf[argOff:n], &w, false, sp); !replied {
		return nil
	}
	out := &mbuf.Chain{}
	out.AppendSmall(w.Bytes())
	return out
}

// boundedArgs is the decoded argument block of one bounded procedure.
type boundedArgs struct {
	fh            nfsproto.FH
	name          string // LOOKUP name or MNT path
	cookie, count uint32
	sattr         nfsproto.Sattr
	hint          nfsproto.LeaseHint
	hinted        bool
}

// leaseHint returns the call's lease hint, nil when it carried none.
func (a *boundedArgs) leaseHint() *nfsproto.LeaseHint {
	if !a.hinted {
		return nil
	}
	return &a.hint
}

// decode reads the arguments of a bounded procedure. It touches nothing
// but a, so a false return has had no side effects.
func (a *boundedArgs) decode(prog, proc uint32, r *xdr.ByteReader) bool {
	if prog == nfsproto.MountProgram {
		if proc == nfsproto.MountProcMnt {
			a.name = string(r.Opaque(nfsproto.MountMaxPath))
		}
		return r.OK()
	}
	switch proc {
	case nfsproto.ProcGetattr, nfsproto.ProcStatfs, nfsproto.ProcReadlink:
		copy(a.fh[:], r.FixedOpaque(nfsproto.FHSize))
	case nfsproto.ProcSetattr:
		copy(a.fh[:], r.FixedOpaque(nfsproto.FHSize))
		a.sattr.Mode = r.Uint32()
		a.sattr.UID = r.Uint32()
		a.sattr.GID = r.Uint32()
		a.sattr.Size = r.Uint32()
		a.sattr.Atime = nfsproto.Time{Sec: r.Uint32(), USec: r.Uint32()}
		a.sattr.Mtime = nfsproto.Time{Sec: r.Uint32(), USec: r.Uint32()}
	case nfsproto.ProcLookup:
		copy(a.fh[:], r.FixedOpaque(nfsproto.FHSize))
		a.name = string(r.Opaque(nfsproto.MaxNameLen))
	case nfsproto.ProcReaddir:
		copy(a.fh[:], r.FixedOpaque(nfsproto.FHSize))
		a.cookie = r.Uint32()
		a.count = r.Uint32()
	}
	if !r.OK() {
		return false
	}
	a.hint, a.hinted = nfsproto.DecodeLeaseHintBytes(r)
	return true
}

// serveBounded runs one bounded call whose CALL header has been read:
// argument decode, the duplicate-request check and call accounting, the
// handler, and the reply (header included) appended to w. ok=false is the
// inline entry's side-effect-free refusal; replied=false means the call was
// consumed without a reply (an in-flight duplicate). Entered from the nfsd
// path (inline=false), undecodable arguments answer GARBAGE_ARGS.
func (s *Server) serveBounded(p *sim.Proc, peer string, xid, prog, proc uint32, args []byte, w *xdr.ByteWriter, inline bool, sp *metrics.Span) (ok, replied bool) {
	var r xdr.ByteReader
	r.ResetBytes(args)
	var a boundedArgs
	garbage := !a.decode(prog, proc, &r)
	if inline && (garbage || proc == nfsproto.ProcReaddir && prog == nfsproto.Program &&
		(a.count == 0 || a.count > inlineReaddirMax)) {
		return false, false
	}
	start := w.Len()
	stat := uint32(rpc.Success)
	if garbage {
		stat = rpc.GarbageArgs
		sp.SetErr()
	}

	// MOUNT program: bytes counters only — no per-proc stats, no service
	// histogram, no dupcache.
	if prog == nfsproto.MountProgram {
		rpc.AppendReplyHeader(w, xid, stat)
		if !garbage && proc == nfsproto.MountProcMnt {
			s.mnt(peer, a.name, w)
		}
		sp.Stamp(metrics.StageService)
		s.cBytesOut.Add(int64(w.Len() - start))
		return true, true
	}

	dkey := dupKey{peer: peer, xid: xid, proc: proc}
	cached, drop := s.admit(dkey, sp)
	if drop {
		return true, false
	}
	if cached != nil {
		w.PutFixedOpaque(cached.Bytes())
		return true, true
	}
	begin := s.svcNow(p)
	rpc.AppendReplyHeader(w, xid, stat)
	if !garbage {
		switch proc {
		case nfsproto.ProcGetattr:
			s.getattr(p, peer, &a, w)
		case nfsproto.ProcSetattr:
			s.setattr(p, peer, &a, w)
		case nfsproto.ProcLookup:
			s.lookup(p, peer, &a, w, sp)
		case nfsproto.ProcReadlink:
			s.readlink(p, &a, w)
		case nfsproto.ProcReaddir:
			s.readdir(p, &a, w, sp)
		case nfsproto.ProcStatfs:
			s.charge(p, "nfs", costVOP)
			res := s.FS.Statfs()
			res.EncodeBytes(w)
		}
	}
	sp.Stamp(metrics.StageService)
	rep := w.Bytes()[start:]
	s.served(p, dkey, s.svcNow(p)-begin, garbage, len(rep))
	if nonIdempotent[proc] {
		// The reply region is the caller's scratch; the dupcache keeps
		// its own copy.
		keep := &mbuf.Chain{}
		keep.AppendSmall(rep)
		s.dupc.commit(dkey, keep, sp)
	}
	return true, true
}

func (s *Server) getattr(p *sim.Proc, peer string, a *boundedArgs, w *xdr.ByteWriter) {
	s.charge(p, "nfs", costVOP)
	// Attributes of a write-leased file live on the holder; evict first.
	if s.leaseConflict(p, a.fh, false, peer) {
		(&nfsproto.AttrRes{Status: nfsproto.ErrTryLater}).EncodeBytes(w)
		return
	}
	n, err := s.FS.Resolve(a.fh)
	if err != nil {
		(&nfsproto.AttrRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	attr := s.FS.Attr(n)
	(&nfsproto.AttrRes{Status: nfsproto.OK, Attr: &attr}).EncodeBytes(w)
	s.piggybackBytes(w, peer, a.fh, attr.Type, a.leaseHint())
}

func (s *Server) setattr(p *sim.Proc, peer string, a *boundedArgs, w *xdr.ByteWriter) {
	s.charge(p, "nfs", costVOP)
	if s.leaseConflict(p, a.fh, true, peer) {
		(&nfsproto.AttrRes{Status: nfsproto.ErrTryLater}).EncodeBytes(w)
		return
	}
	n, err := s.FS.Resolve(a.fh)
	if err != nil {
		(&nfsproto.AttrRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	s.FS.Setattr(p, n, a.sattr)
	attr := s.FS.Attr(n)
	(&nfsproto.AttrRes{Status: nfsproto.OK, Attr: &attr}).EncodeBytes(w)
}

func (s *Server) lookup(p *sim.Proc, peer string, a *boundedArgs, w *xdr.ByteWriter, sp *metrics.Span) {
	s.charge(p, "nfs", costVOP)
	dir, err := s.FS.Resolve(a.fh)
	if err != nil {
		(&nfsproto.DiropRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	// Name cache first (when the personality has one).
	if s.namec.Enabled() {
		s.charge(p, "namecache", costNameCacheHit)
		if vn, vgen, neg, found := s.namec.Lookup(dir.Ino, dir.Gen, a.name, sp); found {
			if neg {
				(&nfsproto.DiropRes{Status: nfsproto.ErrNoEnt}).EncodeBytes(w)
				return
			}
			if n, err := s.FS.Get(vn, vgen); err == nil {
				s.lookupReply(p, peer, n, a, w)
				return
			}
			s.namec.Remove(dir.Ino, dir.Gen, a.name)
		}
	}
	s.scanDirectory(p, dir, sp)
	n, err := s.FS.Lookup(dir, a.name)
	if err != nil {
		if err == memfs.ErrNoEnt {
			s.namec.EnterNegative(dir.Ino, dir.Gen, a.name, sp)
		}
		s.cErrors.Inc()
		(&nfsproto.DiropRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	s.namec.Enter(dir.Ino, dir.Gen, a.name, n.Ino, n.Gen, sp)
	s.lookupReply(p, peer, n, a, w)
}

// lookupReply answers a resolved LOOKUP, from the name cache or a scan.
func (s *Server) lookupReply(p *sim.Proc, peer string, n *memfs.Inode, a *boundedArgs, w *xdr.ByteWriter) {
	fh := s.FS.FH(n)
	if s.leaseConflict(p, fh, false, peer) {
		(&nfsproto.DiropRes{Status: nfsproto.ErrTryLater}).EncodeBytes(w)
		return
	}
	attr := s.FS.Attr(n)
	(&nfsproto.DiropRes{Status: nfsproto.OK, File: fh, Attr: &attr}).EncodeBytes(w)
	s.piggybackBytes(w, peer, fh, attr.Type, a.leaseHint())
}

func (s *Server) readlink(p *sim.Proc, a *boundedArgs, w *xdr.ByteWriter) {
	s.charge(p, "nfs", costVOP)
	n, err := s.FS.Resolve(a.fh)
	if err != nil {
		(&nfsproto.ReadlinkRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	target, err := s.FS.Readlink(n)
	if err != nil {
		(&nfsproto.ReadlinkRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	(&nfsproto.ReadlinkRes{Status: nfsproto.OK, Path: target}).EncodeBytes(w)
}

// readdir streams the entry list straight into w: "." and ".." first, then
// the directory list, synthetic cookies counting entries emitted so far.
// A count of 0 or above nfsproto.MaxData is clamped to MaxData (the inline
// entry never passes one).
func (s *Server) readdir(p *sim.Proc, a *boundedArgs, w *xdr.ByteWriter, sp *metrics.Span) {
	s.charge(p, "nfs", costVOP)
	dir, err := s.FS.Resolve(a.fh)
	if err != nil {
		(&nfsproto.ReaddirRes{Status: errStatus(err)}).EncodeBytes(w)
		return
	}
	if dir.Type != nfsproto.TypeDir {
		(&nfsproto.ReaddirRes{Status: nfsproto.ErrNotDir}).EncodeBytes(w)
		return
	}
	s.scanDirectory(p, dir, sp)
	ents := s.FS.DirEntries(dir)
	w.PutUint32(uint32(nfsproto.OK))
	budget := int(a.count)
	if budget <= 0 || budget > nfsproto.MaxData {
		budget = nfsproto.MaxData
	}
	used := 16 // status + eof + terminator
	eof := true
	total := len(ents) + 2
	for i := int(a.cookie); i < total; i++ {
		var fileID, next uint32
		var name string
		switch i {
		case 0:
			fileID, name, next = dir.Ino, ".", 1
		case 1:
			fileID, name, next = dir.Ino, "..", 2
		default:
			de := ents[i-2]
			fileID, name, next = de.Ino, de.Name, uint32(i+1)
		}
		sz := 16 + len(name)
		if used+sz > budget {
			eof = false
			break
		}
		w.PutBool(true) // entry follows
		w.PutUint32(fileID)
		w.PutString(name)
		w.PutUint32(next)
		used += sz
	}
	w.PutBool(false) // no more entries
	w.PutBool(eof)
}
