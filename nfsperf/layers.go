package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"strings"

	"renonfs/internal/lockstat"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/vfs"
)

// layerSnap is everything the per-layer metrics are deltas of, read through
// the program's public surfaces at one window boundary.
type layerSnap struct {
	reg      *metrics.Snapshot
	mbuf     mbuf.StatsSnapshot
	locks    map[string]lockstat.Stat
	names    vfs.NameCacheStats
	bufs     vfs.CacheStats
	rt       []rtmetrics.Sample
	rcvbuf   int64
	rcvbufOK bool
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func takeSnap(r *rig) layerSnap {
	s := layerSnap{
		reg:   r.srv.Metrics.Snapshot(),
		mbuf:  mbuf.Stats.Snapshot(),
		locks: make(map[string]lockstat.Stat),
		names: r.srv.NameCacheStats(),
		bufs:  r.srv.BufCacheStats(),
		rt:    make([]rtmetrics.Sample, len(rtNames)),
	}
	for _, st := range lockstat.Stats() {
		s.locks[st.Name] = st
	}
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	rtmetrics.Read(s.rt)
	s.rcvbuf, s.rcvbufOK = udpRcvbufErrors()
	return s
}

// sumCounters adds the delta counters named prefix<anything>suffix.
func sumCounters(d *metrics.Snapshot, prefix, suffix string) float64 {
	var n int64
	for name, v := range d.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return float64(n)
}

// gcPauseP99 is the p99 of the GC stop-the-world pauses between two reads
// of the runtime's pause histogram, in µs (the bucket's upper bound).
func gcPauseP99(a, b *rtmetrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			counts[i] -= a.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= 0.99*float64(total) {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // +Inf: report the lower bound
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// layerInput is what the per-layer metrics need besides the two snapshots.
type layerInput struct {
	a, b       layerSnap
	windowS    float64
	nfsds      int
	completed  float64 // calls answered on time and correctly in the window
	clientMean float64 // µs, mean latency of those calls
}

// layerMetrics derives the per-layer metrics of one measured window.
func layerMetrics(in layerInput) map[string]float64 {
	d := in.b.reg.Delta(in.a.reg)
	m := make(map[string]float64)
	h := func(name string) metrics.HistogramSnapshot { return d.Histograms[name] }
	c := func(name string) float64 { return float64(d.Counters[name]) }
	perOp := func(x float64) float64 { return ratio(x, in.completed) }

	// nfsnet: ingest, ring, send batching.
	for _, st := range []string{"read", "send", "queue"} {
		hs := h("rpc.stage." + st + ".us")
		m["nfsnet."+st+"_p50_us"] = hs.Quantile(50)
		m["nfsnet."+st+"_p99_us"] = hs.Quantile(99)
	}
	reads := sumCounters(d, "rpc.reader.", ".reads")
	fast := sumCounters(d, "rpc.reader.", ".fast")
	m["nfsnet.fast_share"] = ratio(fast, reads)
	m["nfsnet.reads_per_wakeup"] = ratio(reads, sumCounters(d, "rpc.reader.", ".wakeups"))
	m["nfsnet.replies_per_send"] = ratio(c("rpc.send.batched_msgs"), c("rpc.send.batches"))
	m["nfsnet.nfsd_busy_frac"] = ratio(sumCounters(d, "rpc.nfsd.", ".busy_us"), float64(in.nfsds)*in.windowS*1e6)
	if in.a.rcvbufOK && in.b.rcvbufOK {
		m["nfsnet.kernel_rcvbuf_drops_hostwide"] = float64(in.b.rcvbuf - in.a.rcvbuf)
	} else {
		m["nfsnet.kernel_rcvbuf_drops_hostwide"] = 0
	}

	// rpc / nfsproto codecs.
	m["rpc.decode_p50_us"] = h("rpc.stage.decode.us").Quantile(50)
	m["rpc.encode_p50_us"] = h("rpc.stage.encode.us").Quantile(50)
	fb := c("rpc.fastpath.fallbacks")
	m["rpc.fastpath_fallback_ratio"] = ratio(fb, c("rpc.fastpath.calls")+fb)

	// server.
	total := h("rpc.stage.total.us")
	m["server.service_p50_us"] = h("rpc.stage.service.us").Quantile(50)
	m["server.service_p99_us"] = h("rpc.stage.service.us").Quantile(99)
	m["server.total_p50_us"] = total.Quantile(50)
	m["server.total_p99_us"] = total.Quantile(99)
	m["server.total_mean_us"] = total.Mean()
	m["server.remainder_mean_us"] = in.clientMean - total.Mean()
	for _, st := range metrics.StageNames() {
		m["server.stage."+st+".us_per_call"] = ratio(h("rpc.stage."+st+".us").Sum, float64(total.Count))
	}
	m["server.dupcheck_p99_us"] = h("rpc.stage.dupcheck.us").Quantile(99)
	m["server.lockwait_p99_us"] = h("rpc.stage.lockwait.us").Quantile(99)
	m["server.dupc_hits"] = c("nfs.dup_hits")
	m["server.dupc_inflight_drops"] = c("server.dupc.inflight_drops")
	m["server.errors_per_op"] = ratio(c("nfs.errors"), c("nfs.calls"))
	for _, p := range serviceProcs {
		// nfs.service_ms.* are in milliseconds.
		m["server.proc."+p+".service_p50_us"] = h("nfs.service_ms."+p).Quantile(50) * 1e3
	}

	// vfs caches.
	nh := float64(in.b.names.Hits - in.a.names.Hits)
	nm := float64(in.b.names.Misses - in.a.names.Misses)
	m["vfs.namecache_hit_ratio"] = ratio(nh, nh+nm)
	bh := float64(in.b.bufs.Hits - in.a.bufs.Hits)
	bm := float64(in.b.bufs.Misses - in.a.bufs.Misses)
	m["vfs.bufcache_hit_ratio"] = ratio(bh, bh+bm)
	lockWait := func(site string) float64 {
		return float64(in.b.locks[site].WaitNS-in.a.locks[site].WaitNS) / 1e3
	}
	lockCont := func(site string) float64 {
		return float64(in.b.locks[site].Contended - in.a.locks[site].Contended)
	}
	m["vfs.namecache_wait_us_per_op"] = perOp(lockWait("vfs.namecache"))
	m["vfs.bufcache_wait_us_per_op"] = perOp(lockWait("vfs.bufcache"))

	// memfs locks.
	m["memfs.tree_wait_us_per_op"] = perOp(lockWait("memfs.tree"))
	m["memfs.inode_wait_us_per_op"] = perOp(lockWait("memfs.inode"))
	m["memfs.tree_contended"] = lockCont("memfs.tree")
	m["memfs.inode_contended"] = lockCont("memfs.inode")

	// mbuf, process-wide (the generator's own encoding included).
	ma, mb := in.a.mbuf, in.b.mbuf
	m["mbuf.copied_bytes_per_op"] = perOp(float64(mb.CopiedBytes - ma.CopiedBytes))
	m["mbuf.loaned_bytes_per_op"] = perOp(float64(mb.LoanedBytes - ma.LoanedBytes))
	hits := float64(mb.PoolHits - ma.PoolHits)
	m["mbuf.pool_hit_ratio"] = ratio(hits, hits+float64(mb.PoolMisses-ma.PoolMisses))
	m["mbuf.allocs_per_op"] = perOp(float64(mb.SmallAllocs - ma.SmallAllocs + mb.ClusterAllocs - ma.ClusterAllocs))

	// Go runtime.
	ra, rb := in.a.rt, in.b.rt
	m["runtime.alloc_bytes_per_op"] = perOp(float64(rb[0].Value.Uint64() - ra[0].Value.Uint64()))
	m["runtime.gc_cycles"] = float64(rb[1].Value.Uint64() - ra[1].Value.Uint64())
	m["runtime.gc_pause_p99_us"] = gcPauseP99(ra[2].Value.Float64Histogram(), rb[2].Value.Float64Histogram())
	return m
}

// serviceProcs are the procedures whose service time is reported per
// procedure; each is carried by at least one workload.
var serviceProcs = []string{"lookup", "getattr", "read", "write", "create", "remove"}

// checkDrain verifies the frontend's drain invariant after Close: every
// datagram a reader took was served either inline on the shallow path or
// by exactly one nfsd.
func checkDrain(r *rig) error {
	reg := r.srv.Metrics.Snapshot()
	reads := sumCounters(reg, "rpc.reader.", ".reads")
	fast := sumCounters(reg, "rpc.reader.", ".fast")
	calls := sumCounters(reg, "rpc.nfsd.", ".calls")
	if reads != calls+fast {
		return fmt.Errorf("drain invariant: %.0f reads != %.0f nfsd calls + %.0f fast", reads, calls, fast)
	}
	return nil
}

type nameUnit struct{ name, unit string }

// layerUnits lists the per-layer metrics (--trace 1) and their units.
var layerUnits = func() []nameUnit {
	l := []nameUnit{
		{"nfsnet.read_p50_us", "us"}, {"nfsnet.read_p99_us", "us"},
		{"nfsnet.send_p50_us", "us"}, {"nfsnet.send_p99_us", "us"},
		{"nfsnet.queue_p50_us", "us"}, {"nfsnet.queue_p99_us", "us"},
		{"nfsnet.fast_share", "ratio"}, {"nfsnet.reads_per_wakeup", "ratio"},
		{"nfsnet.replies_per_send", "ratio"}, {"nfsnet.nfsd_busy_frac", "ratio"},
		{"nfsnet.kernel_rcvbuf_drops_hostwide", "count"},
		{"rpc.decode_p50_us", "us"}, {"rpc.encode_p50_us", "us"},
		{"rpc.fastpath_fallback_ratio", "ratio"},
		{"server.service_p50_us", "us"}, {"server.service_p99_us", "us"},
		{"server.total_p50_us", "us"}, {"server.total_p99_us", "us"},
		{"server.total_mean_us", "us"}, {"server.remainder_mean_us", "us"},
	}
	for _, st := range metrics.StageNames() {
		l = append(l, nameUnit{"server.stage." + st + ".us_per_call", "us"})
	}
	l = append(l,
		nameUnit{"server.dupcheck_p99_us", "us"}, nameUnit{"server.lockwait_p99_us", "us"},
		nameUnit{"server.dupc_hits", "count"}, nameUnit{"server.dupc_inflight_drops", "count"},
		nameUnit{"server.errors_per_op", "ratio"})
	for _, p := range serviceProcs {
		l = append(l, nameUnit{"server.proc." + p + ".service_p50_us", "us"})
	}
	for _, k := range replayKinds {
		if k != kRead {
			l = append(l, nameUnit{"server.fast_ns." + kindNames[k], "ns"})
		}
	}
	for _, k := range replayKinds {
		l = append(l, nameUnit{"server.generic_ns." + kindNames[k], "ns"})
	}
	l = append(l,
		nameUnit{"vfs.namecache_hit_ratio", "ratio"}, nameUnit{"vfs.namecache_wait_us_per_op", "us"},
		nameUnit{"vfs.bufcache_hit_ratio", "ratio"}, nameUnit{"vfs.bufcache_wait_us_per_op", "us"},
		nameUnit{"memfs.tree_wait_us_per_op", "us"}, nameUnit{"memfs.inode_wait_us_per_op", "us"},
		nameUnit{"memfs.tree_contended", "count"}, nameUnit{"memfs.inode_contended", "count"},
		nameUnit{"mbuf.copied_bytes_per_op", "B"}, nameUnit{"mbuf.loaned_bytes_per_op", "B"},
		nameUnit{"mbuf.pool_hit_ratio", "ratio"}, nameUnit{"mbuf.allocs_per_op", "count"},
		nameUnit{"runtime.alloc_bytes_per_op", "B"}, nameUnit{"runtime.gc_cycles", "count"},
		nameUnit{"runtime.gc_pause_p99_us", "us"},
		nameUnit{"loadgen.late_p50_us", "us"}, nameUnit{"loadgen.late_p99_us", "us"},
		nameUnit{"loadgen.achieved_ops", "1/s"}, nameUnit{"loadgen.encode_ns", "ns"},
		nameUnit{"loadgen.send_ns", "ns"}, nameUnit{"loadgen.decode_ns", "ns"},
		nameUnit{"loadgen.client_mean_us", "us"}, nameUnit{"loadgen.trace_overhead_us", "us"},
		nameUnit{"loadgen.trace_joined_spans", "count"}, nameUnit{"loadgen.retransmits", "count"},
		nameUnit{"lat_p50_us", "us"}, nameUnit{"lat_p99_us", "us"},
		nameUnit{"meta_p50_us", "us"}, nameUnit{"meta_p99_us", "us"},
		nameUnit{"data_p50_us", "us"}, nameUnit{"data_p99_us", "us"},
		nameUnit{"cpu_us_per_op", "us"},
		nameUnit{"rtt_p50_us", "us"}, nameUnit{"rtt_p99_us", "us"},
		nameUnit{"lat_p90_x_echo", "ratio"},
		nameUnit{"echo.p50_us", "us"}, nameUnit{"echo.p99_us", "us"})
	return l
}()
