package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// tree holds the handles and expected results of the preloaded filesystem.
type tree struct {
	root, metaDir, dataDir, tmpDir nfsproto.FH
	meta                           [metaFiles]nfsproto.FH
	metaIno                        [metaFiles]uint32
	links                          [metaLinks]nfsproto.FH
	linkTarget                     [metaLinks]string
	dirs                           [metaDirs]nfsproto.FH
	data                           [dataFiles]nfsproto.FH
	pattern                        [dataFiles * dataBlocks][]byte
}

// preload builds the tree straight into memfs, as a server would find it on
// disk at boot.
func preload(fs *memfs.FS, t *tree) error {
	root := fs.Root()
	t.root = fs.FH(root)
	mk := func(dir *memfs.Inode, name string) (*memfs.Inode, error) {
		n, err := fs.Mkdir(nil, dir, name, 0755)
		if err != nil {
			return nil, fmt.Errorf("preload mkdir %s: %w", name, err)
		}
		return n, nil
	}
	metaDir, err := mk(root, "meta")
	if err != nil {
		return err
	}
	dataDir, err := mk(root, "data")
	if err != nil {
		return err
	}
	tmpDir, err := mk(root, "tmp")
	if err != nil {
		return err
	}
	t.metaDir, t.dataDir, t.tmpDir = fs.FH(metaDir), fs.FH(dataDir), fs.FH(tmpDir)
	small := bytes.Repeat([]byte("nfsperf "), metaFileBytes/8)
	for i := range t.meta {
		n, err := fs.Create(nil, metaDir, metaName(i), 0644)
		if err != nil {
			return fmt.Errorf("preload create %s: %w", metaName(i), err)
		}
		if err := fs.WriteAt(nil, n, 0, small, 0); err != nil {
			return fmt.Errorf("preload write %s: %w", metaName(i), err)
		}
		t.meta[i], t.metaIno[i] = fs.FH(n), n.Ino
	}
	for i := range t.links {
		t.linkTarget[i] = metaName(i)
		n, err := fs.Symlink(nil, metaDir, linkName(i), t.linkTarget[i], 0777)
		if err != nil {
			return fmt.Errorf("preload symlink %s: %w", linkName(i), err)
		}
		t.links[i] = fs.FH(n)
	}
	for i := range t.dirs {
		d, err := mk(metaDir, dirName(i))
		if err != nil {
			return err
		}
		for j := 0; j < dirEntries; j++ {
			if _, err := fs.Create(nil, d, metaName(j), 0644); err != nil {
				return fmt.Errorf("preload create %s/%s: %w", dirName(i), metaName(j), err)
			}
		}
		t.dirs[i] = fs.FH(d)
	}
	for f := range t.data {
		n, err := fs.Create(nil, dataDir, dataName(f), 0644)
		if err != nil {
			return fmt.Errorf("preload create %s: %w", dataName(f), err)
		}
		for b := 0; b < dataBlocks; b++ {
			p := t.pattern[f*dataBlocks+b]
			if err := fs.WriteAt(nil, n, uint32(b*blockBytes), p, 0); err != nil {
				return fmt.Errorf("preload write %s: %w", dataName(f), err)
			}
		}
		t.data[f] = fs.FH(n)
	}
	return nil
}

// rig is one running server with the generator's sockets dialled to it.
type rig struct {
	srv   *server.Server
	net   *nfsnet.Server
	conns []*net.UDPConn
	tree  tree
}

// startServer is the timed part of the set-up: build and preload the
// filesystem, start the real-socket server with cmd/nfsd's defaults, and
// mount and walk the tree over the wire, checking that every LOOKUP
// returns the preloaded handle.
func startServer(t *tree) (*rig, error) {
	fs := memfs.New(1, nil, nil)
	if err := preload(fs, t); err != nil {
		return nil, err
	}
	opts := server.Reno()
	opts.NFSDs = 8
	opts.Readers = 0 // one per GOMAXPROCS
	opts.ReaddirLook = true
	srv := server.New(fs, opts)
	srv.Export("/")
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	r := &rig{srv: srv, net: s, tree: *t}
	if err := r.walk(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// dial opens the generator's sockets, spread evenly over the server's
// ingest readers. Under SO_REUSEPORT the kernel pins each client socket to
// one reader by a hash of its address, so two sockets land on the same
// reader half the time; a socket whose NULL call reaches an already used
// reader is replaced, as a large client population would spread over
// every reader.
func (r *rig) dial(senders int) error {
	raddr, err := net.ResolveUDPAddr("udp", r.net.UDPAddr())
	if err != nil {
		return err
	}
	readers := r.net.Readers()
	used := make(map[int]bool)
	for attempts := 0; len(r.conns) < senders; attempts++ {
		if attempts == 64*senders {
			return fmt.Errorf("dial: no spread of %d sockets over %d readers in %d attempts", senders, readers, attempts)
		}
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		// A reply dropped at the generator's own socket would be charged
		// to the server; the kernel caps the request at rmem_max.
		if err := c.SetReadBuffer(clientRcvbuf); err != nil {
			c.Close()
			return fmt.Errorf("client receive buffer: %w", err)
		}
		if err := enableRxStamps(c); err != nil {
			c.Close()
			return fmt.Errorf("arrival stamps: %w", err)
		}
		reader, err := r.readerOf(c)
		if err != nil {
			c.Close()
			return err
		}
		if used[reader] && len(used) < readers {
			c.Close()
			continue
		}
		used[reader] = true
		r.conns = append(r.conns, c)
	}
	return nil
}

// readerOf sends a NULL call on c and reports which ingest reader took it.
func (r *rig) readerOf(c *net.UDPConn) (int, error) {
	count := func() []int64 {
		reg := r.srv.Metrics.Snapshot()
		n := make([]int64, r.net.Readers())
		for i := range n {
			n[i] = reg.Counters[fmt.Sprintf("rpc.reader.%d.reads", i)]
		}
		return n
	}
	before := count()
	if _, err := c.Write(encodeCall(1, nfsproto.ProcNull, func(*xdr.Encoder) {})); err != nil {
		return 0, fmt.Errorf("null call: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(callDeadline))
	buf := make([]byte, 512)
	if _, err := c.Read(buf); err != nil {
		return 0, fmt.Errorf("null call: %w", err)
	}
	c.SetReadDeadline(time.Time{})
	for i, n := range count() {
		if n != before[i] {
			return i, nil
		}
	}
	return 0, fmt.Errorf("null call: no reader counted it")
}

// walkBatch is how many LOOKUPs the set-up walk has outstanding at once:
// enough that the walk costs a dozen round trips rather than one per name,
// few enough that a burst never fills the server's socket buffer.
const walkBatch = 32

// walk mounts the export and looks up every preloaded name over the
// socket, checking each handle. On a shared host one round trip costs from
// tens of microseconds to a millisecond, so the LOOKUPs are pipelined in
// batches rather than sent one at a time; a call still unanswered after
// 100 ms is sent again, like a call of the load.
func (r *rig) walk() error {
	c, err := nfsnet.DialUDP(r.net.UDPAddr())
	if err != nil {
		return fmt.Errorf("dial setup client: %w", err)
	}
	mnt, err := c.Mnt("/")
	c.Close()
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	if mnt.Status != 0 || mnt.File != r.tree.root {
		return fmt.Errorf("mount: status %d, handle %v, want %v", mnt.Status, mnt.File, r.tree.root)
	}
	t := &r.tree
	type lookup struct {
		dir      nfsproto.FH
		name     string
		want     nfsproto.FH
		answered bool
	}
	var ls []lookup
	for _, e := range []struct {
		name string
		fh   nfsproto.FH
	}{{"meta", t.metaDir}, {"data", t.dataDir}, {"tmp", t.tmpDir}} {
		ls = append(ls, lookup{dir: t.root, name: e.name, want: e.fh})
	}
	for i := range t.meta {
		ls = append(ls, lookup{dir: t.metaDir, name: metaName(i), want: t.meta[i]})
	}
	for i := range t.data {
		ls = append(ls, lookup{dir: t.dataDir, name: dataName(i), want: t.data[i]})
	}

	raddr, err := net.ResolveUDPAddr("udp", r.net.UDPAddr())
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return fmt.Errorf("dial setup client: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	for lo := 0; lo < len(ls); lo += walkBatch {
		hi := min(lo+walkBatch, len(ls))
		deadline := time.Now().Add(callDeadline)
		for pending := hi - lo; pending > 0; {
			for i := lo; i < hi; i++ {
				if !ls[i].answered {
					req := encodeCall(uint32(i+1), nfsproto.ProcLookup,
						(&nfsproto.DiropArgs{Dir: ls[i].dir, Name: ls[i].name}).Encode)
					if _, err := conn.Write(req); err != nil {
						return fmt.Errorf("lookup %s: %w", ls[i].name, err)
					}
				}
			}
			wait := time.Now().Add(retransmitAfter)
			if wait.After(deadline) {
				wait = deadline
			}
			conn.SetReadDeadline(wait)
			for pending > 0 {
				n, err := conn.Read(buf)
				if err != nil {
					if time.Now().Before(deadline) {
						break // send the unanswered calls again
					}
					return fmt.Errorf("lookup: %d of %d calls unanswered: %w", pending, hi-lo, err)
				}
				i := int(binary.BigEndian.Uint32(buf)) - 1
				if i < lo || i >= hi || ls[i].answered {
					continue // a reply to an earlier send of an answered call
				}
				var rd xdr.ByteReader
				rd.ResetBytes(buf[:n])
				status, ok := acceptedStatus(&rd)
				fh := rd.FixedOpaque(nfsproto.FHSize)
				if !ok || status != nfsproto.OK || !rd.OK() || !bytes.Equal(fh, ls[i].want[:]) {
					return fmt.Errorf("lookup %s: status %v, handle %x, want %v", ls[i].name, status, fh, ls[i].want)
				}
				ls[i].answered = true
				pending--
			}
		}
	}
	return nil
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.net.Close()
}

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 7

// setup starts setupRounds servers one after another, each from a freshly
// collected heap, keeps the last, and dials the generator's sockets to it.
// It returns the median set-up time; placing the generator's sockets is
// not part of it.
func setup(senders int) (*rig, float64, error) {
	var t tree
	for i := range t.pattern {
		t.pattern[i] = pattern(i/dataBlocks, i%dataBlocks)
	}
	var times []float64
	var r *rig
	for i := 0; i < setupRounds; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = startServer(&t); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if err := r.dial(senders); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, median(times), nil
}

// encodeCall marshals one NFS call with the repository's codec.
func encodeCall(xid, proc uint32, args func(e *xdr.Encoder)) []byte {
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	args(xdr.NewEncoder(msg))
	b := msg.Bytes()
	msg.Free()
	return b
}

var kindProc = [numKinds]uint32{
	kLookup: nfsproto.ProcLookup, kGetattr: nfsproto.ProcGetattr,
	kReadlink: nfsproto.ProcReadlink, kReaddir: nfsproto.ProcReaddir,
	kStatfs: nfsproto.ProcStatfs, kSetattr: nfsproto.ProcSetattr,
	kRead: nfsproto.ProcRead, kWrite: nfsproto.ProcWrite,
}

// templates pre-encodes every request the static kinds can send (XID 0;
// the sender patches the XID in), so the generator spends its time
// pacing rather than marshalling. Namespace calls are encoded at send time.
func templates(t *tree) [numKinds][][]byte {
	var tpl [numKinds][][]byte
	for k := kind(0); k < kNamespace; k++ {
		tpl[k] = make([][]byte, targets[k])
		for i := range tpl[k] {
			i := i
			var args func(e *xdr.Encoder)
			switch k {
			case kLookup:
				args = (&nfsproto.DiropArgs{Dir: t.metaDir, Name: metaName(i)}).Encode
			case kGetattr:
				args = (&nfsproto.GetattrArgs{File: t.meta[i]}).Encode
			case kReadlink:
				args = (&nfsproto.GetattrArgs{File: t.links[i]}).Encode
			case kReaddir:
				args = (&nfsproto.ReaddirArgs{Dir: t.dirs[i], Count: readdirCount}).Encode
			case kStatfs:
				args = (&nfsproto.GetattrArgs{File: t.root}).Encode
			case kSetattr:
				sa := nfsproto.NewSattr()
				sa.Mode = 0644
				args = (&nfsproto.SetattrArgs{File: t.data[i], Attr: sa}).Encode
			case kRead:
				args = (&nfsproto.ReadArgs{File: t.data[i/dataBlocks], Offset: uint32(i%dataBlocks) * blockBytes, Count: blockBytes}).Encode
			case kWrite:
				args = (&nfsproto.WriteArgs{File: t.data[i/dataBlocks], Offset: uint32(i%dataBlocks) * blockBytes,
					Data: mbuf.FromBytes(t.pattern[i])}).Encode
			}
			tpl[k][i] = encodeCall(0, kindProc[k], args)
		}
	}
	return tpl
}

// namespaceCall encodes a virtual client's CREATE or REMOVE.
func namespaceCall(xid uint32, dir nfsproto.FH, name string, create bool) []byte {
	if create {
		sa := nfsproto.NewSattr()
		sa.Mode = 0644
		return encodeCall(xid, nfsproto.ProcCreate, (&nfsproto.CreateArgs{
			Where: nfsproto.DiropArgs{Dir: dir, Name: name}, Attr: sa}).Encode)
	}
	return encodeCall(xid, nfsproto.ProcRemove, (&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode)
}

// clientRcvbuf is the receive buffer asked for on each generator socket.
const clientRcvbuf = 4 << 20
