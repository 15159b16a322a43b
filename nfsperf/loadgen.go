package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// callDeadline is how long a call may go unanswered before it counts as
// failed, nfsnet.Client's timeout.
const callDeadline = time.Second

// retransmitAfter is how long a call waits for its reply before it is sent
// again with the same XID, as an NFS client retransmits; the server's
// duplicate-request cache answers a retransmitted non-idempotent call. It
// is hundreds of times the loopback round trip, so only a datagram that
// was dropped (or a reply that was) is sent again.
const retransmitAfter = 100 * time.Millisecond

// drainPoll is how often a sender that has sent its whole schedule checks
// its calls for retransmission.
const drainPoll = 10 * time.Millisecond

// Slot states. A slot moves unsent -> sent (by its sender, before the
// datagram leaves) -> done (by the receiver that matched the reply).
const (
	slotUnsent uint32 = iota
	slotSent
	slotDone
)

// Reply verdicts; anything but replyOK fails the run.
const (
	replyOK      uint8 = iota
	replyRPC           // RPC-level rejection or a malformed reply
	replyStatus        // an NFS status other than the one the op expects
	replyContent       // wrong handle, attributes, link target, listing or bytes
)

// slot is one scheduled call's record. Offsets are ns from the run's base.
type slot struct {
	state  atomic.Uint32
	sendNS int64 // sender: when encoding began (the call's actual start)
	doneNS int64 // receiver: when the reply was read
	// The round trip on the wire, as wall-clock ns since the epoch: when
	// the first datagram was handed to the kernel, and when the kernel
	// queued the reply at the client's socket.
	sendWall, rxWall int64
	verdict          uint8
	create           bool        // namespace calls: this one was a CREATE
	resent           atomic.Bool // set before a retransmission leaves
	// Client span, recorded only for traced calls: encode, send syscall
	// and decode durations; wait is the rest of doneNS-sendNS.
	traced              bool
	encNS, sysNS, decNS int32
}

// gen is one open-loop run: the schedule, the per-call slots, and the
// sockets it drives.
type gen struct {
	ops     []op
	slots   []slot
	tpl     [numKinds][][]byte
	tree    *tree
	conns   []*net.UDPConn
	xidBase uint32
	base    time.Time
	mono0   int64
	// traced reports whether op i records its client span.
	traced func(i int) bool

	sent, onTime, late, stray atomic.Int64
	// retransmits counts calls sent again, dupReplies the second replies
	// they drew when the first one had not been lost after all.
	retransmits, dupReplies atomic.Int64
	closing                 atomic.Bool
}

func (g *gen) now() int64 { return int64(time.Since(g.base)) }

// vclient is a virtual client's namespace state: its temp name is
// tempName(id, gen), which exists on the server when created is true.
type vclient struct {
	gen     uint32
	created bool
	last    int // slot of its previous namespace call, -1 if none
}

// next settles the outcome of the previous call and returns whether the
// next call is a CREATE. A call that was not answered in time, or failed,
// leaves its name in an unknown state, so the client moves to a fresh name.
func (v *vclient) next(g *gen) bool {
	if v.last >= 0 {
		p := &g.slots[v.last]
		if p.state.Load() == slotDone && p.verdict == replyOK && p.doneNS-g.ops[v.last].at <= int64(callDeadline) {
			v.created = p.create
		} else {
			v.gen++
			v.created = false
		}
	}
	return !v.created
}

// send paces sender s through its share of the schedule, retransmitting
// its unanswered calls, and returns once each of them is answered or past
// its deadline.
func (g *gen) send(s int, idx []int32) error {
	p, err := newPacer()
	if err != nil {
		return err
	}
	defer p.close()
	rs := &resender{conn: g.conns[s], nsReq: make(map[int32][]byte)}
	buf := make([]byte, 0, 16384)
	vcs := make(map[int32]*vclient)
	for _, i := range idx {
		o := &g.ops[i]
		// Retransmissions ride on the wake-ups for sends; a separate
		// wake-up per retransmission check would double the generator's
		// timer syscalls and show in cpu_us_per_op.
		g.retransmit(rs, buf)
		if o.at > g.now() {
			if err := p.sleepUntil(g.mono0 + o.at); err != nil {
				return err
			}
		}
		sl := &g.slots[i]
		t0 := g.now()
		xid := g.xidBase + uint32(i)
		var req []byte
		if o.kind == kNamespace {
			v := vcs[o.target]
			if v == nil {
				v = &vclient{last: -1}
				vcs[o.target] = v
			}
			sl.create = v.next(g)
			req = namespaceCall(xid, g.tree.tmpDir, tempName(o.target, v.gen), sl.create)
			rs.nsReq[i] = req
			v.last = int(i)
		} else {
			req = append(buf[:0], g.tpl[o.kind][o.target]...)
			binary.BigEndian.PutUint32(req, xid)
		}
		sl.sendNS = t0
		traced := g.traced(int(i))
		var t1 int64
		if traced {
			sl.traced = true
			t1 = g.now()
			sl.encNS = int32(t1 - t0)
		}
		sl.sendWall = time.Now().UnixNano()
		sl.state.Store(slotSent)
		g.sent.Add(1)
		// A send that fails is retransmitted like a lost datagram.
		_, _ = rs.conn.Write(req)
		if traced {
			// The receiver may already have the reply; sysNS is the
			// sender's own field, read only after the run.
			sl.sysNS = int32(g.now() - t1)
		}
		rs.queue = append(rs.queue, resend{i: i, due: t0 + int64(retransmitAfter)})
	}
	for len(rs.queue) > 0 {
		if err := p.sleepUntil(g.mono0 + g.now() + int64(drainPoll)); err != nil {
			return err
		}
		g.retransmit(rs, buf)
	}
	return nil
}

// resender is one sender's retransmission state: its calls in the order
// their retransmission falls due, and the bytes of its outstanding
// namespace calls, which have no template.
type resender struct {
	conn  *net.UDPConn
	queue []resend
	nsReq map[int32][]byte
}

type resend struct {
	i   int32
	due int64
}

// retransmit resends every call whose retransmission is due and that is
// still unanswered inside its deadline; a call past its deadline is left
// to count as failed.
func (g *gen) retransmit(rs *resender, buf []byte) {
	now := g.now()
	for len(rs.queue) > 0 && rs.queue[0].due <= now {
		e := rs.queue[0]
		rs.queue = rs.queue[1:]
		o, sl := &g.ops[e.i], &g.slots[e.i]
		if sl.state.Load() == slotDone || now-o.at > int64(callDeadline) {
			delete(rs.nsReq, e.i)
			continue
		}
		req := rs.nsReq[e.i]
		if req == nil {
			req = append(buf[:0], g.tpl[o.kind][o.target]...)
			binary.BigEndian.PutUint32(req, g.xidBase+uint32(e.i))
		}
		sl.resent.Store(true)
		g.retransmits.Add(1)
		_, _ = rs.conn.Write(req)
		rs.queue = append(rs.queue, resend{i: e.i, due: now + int64(retransmitAfter)})
	}
}

// receive matches replies on socket s to their slots and checks them.
func (g *gen) receive(s int) {
	conn := g.conns[s]
	buf := make([]byte, 65536)
	oob := make([]byte, max(rxStampSpace, 1))
	for {
		n, oobn, _, _, err := conn.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			if g.closing.Load() {
				return
			}
			continue
		}
		t := g.now()
		rx := rxStamp(oob[:oobn])
		if rx == 0 {
			rx = time.Now().UnixNano()
		}
		if n < 4 {
			g.stray.Add(1)
			continue
		}
		i := int(binary.BigEndian.Uint32(buf) - g.xidBase)
		if i < 0 || i >= len(g.slots) {
			g.stray.Add(1)
			continue
		}
		sl := &g.slots[i]
		if st := sl.state.Load(); st != slotSent {
			if st == slotDone && sl.resent.Load() {
				g.dupReplies.Add(1)
			} else {
				g.stray.Add(1) // a reply to nothing we sent
			}
			continue
		}
		sl.verdict = g.check(&g.ops[i], sl.create, buf[:n])
		sl.doneNS, sl.rxWall = t, rx
		if sl.traced {
			sl.decNS = int32(g.now() - t)
		}
		sl.state.Store(slotDone)
		if t-g.ops[i].at <= int64(callDeadline) {
			g.onTime.Add(1)
		} else {
			g.late.Add(1)
		}
	}
}

// fattr reads the 17-word NFS v2 attribute block.
func fattr(r *xdr.ByteReader) (a [17]uint32) {
	for i := range a {
		a[i] = r.Uint32()
	}
	return a
}

// Word offsets within fattr.
const (
	faMode   = 1
	faSize   = 5
	faFileID = 10
)

// acceptedStatus reads a reply's RPC header and its NFS status word,
// leaving r at the result; ok is false unless the call was accepted and
// succeeded at the RPC level.
func acceptedStatus(r *xdr.ByteReader) (status nfsproto.Status, ok bool) {
	r.Uint32() // xid
	if r.Uint32() != rpc.MsgReply || r.Uint32() != rpc.MsgAccepted {
		return 0, false
	}
	r.Uint32() // verifier flavor
	r.Opaque(400)
	if r.Uint32() != rpc.Success {
		return 0, false
	}
	status = nfsproto.Status(r.Uint32())
	return status, r.OK()
}

// check decodes a reply with the repository's flat XDR reader and compares
// it with what the op must return.
func (g *gen) check(o *op, create bool, pkt []byte) uint8 {
	var r xdr.ByteReader
	r.ResetBytes(pkt)
	status, ok := acceptedStatus(&r)
	if !ok {
		return replyRPC
	}
	if status != nfsproto.OK {
		return replyStatus
	}
	t := g.tree
	switch o.kind {
	case kLookup:
		fh := r.FixedOpaque(nfsproto.FHSize)
		a := fattr(&r)
		ok = bytes.Equal(fh, t.meta[o.target][:]) && a[faFileID] == t.metaIno[o.target]
	case kGetattr:
		ok = fattr(&r)[faFileID] == t.metaIno[o.target]
	case kReadlink:
		ok = string(r.Opaque(nfsproto.MaxPathLen)) == t.linkTarget[o.target]
	case kReaddir:
		n := 0
		for r.Uint32() != 0 && r.OK() {
			r.Uint32() // fileid
			r.Opaque(nfsproto.MaxNameLen)
			r.Uint32() // cookie
			n++
		}
		ok = n == dirEntries+2 && r.Uint32() == 1 // with . and ..
	case kStatfs:
		r.FixedOpaque(20)
	case kSetattr:
		ok = fattr(&r)[faMode]&0777 == 0644
	case kRead:
		fattr(&r)
		ok = bytes.Equal(r.Opaque(blockBytes), t.pattern[o.target])
	case kWrite:
		ok = fattr(&r)[faSize] == dataBlocks*blockBytes
	case kNamespace:
		if create {
			r.FixedOpaque(nfsproto.FHSize)
			fattr(&r)
		}
	}
	if !r.OK() {
		return replyRPC
	}
	if !ok {
		return replyContent
	}
	return replyOK
}

// run sends the whole schedule open loop and returns once every call is
// answered or past its deadline and the receivers have stopped. sample is
// called at each window boundary (offsets in bounds, ns from base).
func (g *gen) run(bounds []int64, sample func(k int)) error {
	g.slots = make([]slot, len(g.ops))
	per := make([][]int32, len(g.conns))
	for i := range g.ops {
		s := g.ops[i].sender
		per[s] = append(per[s], int32(i))
	}
	var recvWG, sendWG sync.WaitGroup
	g.base = time.Now()
	g.mono0 = monoNow()
	for s := range g.conns {
		recvWG.Add(1)
		go func(s int) {
			defer recvWG.Done()
			g.receive(s)
		}(s)
	}
	errs := make([]error, len(g.conns))
	for s := range g.conns {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			errs[s] = g.send(s, per[s])
		}(s)
	}
	for k, b := range bounds {
		if d := time.Duration(b - g.now()); d > 0 {
			time.Sleep(d)
		}
		sample(k)
	}
	sendWG.Wait()
	// Drain: stop once every call is answered or past its deadline.
	end := g.ops[len(g.ops)-1].at + int64(callDeadline) + int64(20*time.Millisecond)
	for g.onTime.Load()+g.late.Load() < g.sent.Load() && g.now() < end {
		time.Sleep(5 * time.Millisecond)
	}
	g.closing.Store(true)
	for _, c := range g.conns {
		c.SetReadDeadline(time.Now())
	}
	recvWG.Wait()
	return errors.Join(errs...)
}
