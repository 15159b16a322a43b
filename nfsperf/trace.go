package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
)

// replayKinds are the idempotent kinds replayed straight into the server
// core, with the proc name their metrics carry; only the header-only ones
// are eligible for the shallow path.
var replayKinds = []kind{kLookup, kGetattr, kReadlink, kReaddir, kStatfs, kRead}

// replay times the server core without sockets: a sample of the run's own
// idempotent requests is handed to server.HandleCallFast (the shallow path,
// as an ingest reader calls it) and to server.HandleCallSpan (the generic
// path, as an nfsd calls it, including the mbuf staging and reply
// linearization around it). It reports the median ns per call of five
// passes. Kinds the workload does not send report 0. A request the shallow
// path refuses is an error: every replayed request is eligible.
func replay(srv *server.Server, g *gen) (map[string]float64, error) {
	const sampleMax, passes = 512, 5
	out := make(map[string]float64)
	scratch := make([]byte, 0, server.FastReplyMax)
	for _, k := range replayKinds {
		name := kindNames[k]
		fastName, genericName := "server.fast_ns."+name, "server.generic_ns."+name
		out[genericName] = 0
		if k != kRead {
			out[fastName] = 0
		}
		var reqs [][]byte
		for i := range g.ops {
			if o := g.ops[i]; o.kind == k && len(reqs) < sampleMax {
				req := append([]byte(nil), g.tpl[k][o.target]...)
				binary.BigEndian.PutUint32(req, g.xidBase+uint32(i))
				reqs = append(reqs, req)
			}
		}
		if len(reqs) == 0 {
			continue
		}
		timePasses := func(call func(req []byte)) float64 {
			var per []float64
			for p := 0; p < passes; p++ {
				t0 := time.Now()
				for _, req := range reqs {
					call(req)
				}
				per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(reqs)))
			}
			return median(per)
		}
		if k != kRead {
			refused := 0
			out[fastName] = timePasses(func(req []byte) {
				var h rpc.PeekedCall
				off, ok := rpc.PeekCallHeader(req, &h)
				if ok && server.FastEligible(&h) {
					_, ok = srv.HandleCallFast("replay", req, &h, off, scratch[:0], nil)
				}
				if !ok {
					refused++
				}
			})
			if refused > 0 {
				return nil, fmt.Errorf("replay: the shallow path refused %d %s requests", refused, name)
			}
		}
		out[genericName] = timePasses(func(req []byte) {
			chain := mbuf.FromBytes(req)
			if rep := srv.HandleCallSpan(nil, "replay", chain, nil); rep != nil {
				_ = rep.Bytes()
				rep.Free()
			}
			chain.Free()
		})
	}
	return out, nil
}

// writeTrace writes one Chrome trace (chrome://tracing, ui.perfetto.dev)
// joining the server's slowest-span ring to the client spans of the same
// calls, matched by peer address and XID. The client track shows each
// call's lateness, encode, send syscall, wait and decode; the server track
// its pipeline stages. It returns how many spans joined.
func writeTrace(path string, g *gen, spans []metrics.Span) (int, error) {
	peers := make(map[string]bool)
	for _, c := range g.conns {
		peers["udp:"+c.LocalAddr().String()] = true
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"server (nfsnet)"}},`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":2,"args":{"name":"client (nfsperf)"}}`)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	event := func(name string, pid, tid int, startNS, durNS int64, xid uint32, proc string) {
		fmt.Fprintf(w, ",\n"+`{"name":%q,"cat":"rpc","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"xid":%d,"proc":%q}}`,
			name, us(startNS), us(durNS), pid, tid, xid, proc)
	}
	joined := 0
	for i := range spans {
		sp := &spans[i]
		idx := int(sp.XID - g.xidBase)
		if !peers[sp.Peer] || idx < 0 || idx >= len(g.slots) {
			continue
		}
		o, sl := &g.ops[idx], &g.slots[idx]
		if sl.state.Load() != slotDone {
			continue
		}
		joined++
		proc := nfsproto.ProcName(sp.Proc)
		tid := int(o.sender)
		event("late", 2, tid, o.at, sl.sendNS-o.at, sp.XID, proc)
		if sl.traced {
			t := sl.sendNS
			event("encode", 2, tid, t, int64(sl.encNS), sp.XID, proc)
			t += int64(sl.encNS)
			event("send", 2, tid, t, int64(sl.sysNS), sp.XID, proc)
			t += int64(sl.sysNS)
			event("wait", 2, tid, t, sl.doneNS-t, sp.XID, proc)
			event("decode", 2, tid, sl.doneNS, int64(sl.decNS), sp.XID, proc)
		} else {
			event("call", 2, tid, sl.sendNS, sl.doneNS-sl.sendNS, sp.XID, proc)
		}
		start := int64(sp.Begin.Sub(g.base))
		worker := int(sp.Worker)
		if worker < 0 {
			worker = 9999
		}
		for st := metrics.Stage(0); st < metrics.NumStages; st++ {
			if d := sp.StageNS(st); d > 0 {
				event(st.String(), 1, worker, start, d, sp.XID, proc)
				start += d
			}
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return joined, err
	}
	return joined, f.Close()
}
