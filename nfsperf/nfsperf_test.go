package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"renonfs/internal/nfsproto"
	nhfsstone "renonfs/internal/workload"
)

// The op schedule is a pure function of the workload and the seed.
func TestScheduleFingerprint(t *testing.T) {
	for _, mk := range workloads {
		w := mk()
		a := fingerprint(schedule(w, 7, 2*time.Second, 2))
		if b := fingerprint(schedule(w, 7, 2*time.Second, 2)); a != b {
			t.Errorf("%s: seed 7 gave two schedules: %s, %s", w.name, a, b)
		}
		if c := fingerprint(schedule(w, 8, 2*time.Second, 2)); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", w.name, a)
		}
	}
}

// A virtual client's namespace calls stay on one sender and are spaced
// past the reply deadline, so each one's predecessor has settled.
func TestNamespaceSpacing(t *testing.T) {
	ops := schedule(nhfsstoneMix(), 3, 20*time.Second, 2)
	last := make(map[int32]op)
	n := 0
	for _, o := range ops {
		if o.kind != kNamespace {
			continue
		}
		n++
		if p, ok := last[o.target]; ok {
			if o.at-p.at < int64(nsSpacing) || o.sender != p.sender {
				t.Fatalf("client %d: calls at %v and %v on senders %d and %d",
					o.target, time.Duration(p.at), time.Duration(o.at), p.sender, o.sender)
			}
		}
		last[o.target] = o
	}
	if n == 0 || len(last) == n {
		t.Fatalf("%d namespace calls over %d clients: no client was reused", n, len(last))
	}
}

// nhfsstone-mix is workload.FullMix with CREATE and REMOVE merged.
func TestFullMixMatchesWorkload(t *testing.T) {
	ours := fullMix()
	for proc, share := range nhfsstone.FullMix() {
		var k kind
		switch proc {
		case nfsproto.ProcCreate, nfsproto.ProcRemove:
			continue
		default:
			for k = 0; k < kNamespace && kindProc[k] != proc; k++ {
			}
		}
		if k == kNamespace || ours[k] != share {
			t.Errorf("%s: workload.FullMix has %v, nfsperf has %v", nfsproto.ProcName(proc), share, ours[k])
		}
	}
	full := nhfsstone.FullMix()
	if ns := full[nfsproto.ProcCreate] + full[nfsproto.ProcRemove]; ours[kNamespace] != ns {
		t.Errorf("namespace share %v, want %v", ours[kNamespace], ns)
	}
}

// BENCHMARK.json names exactly the workloads and metrics nfsperf reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, nfsperf %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i]().name {
			t.Errorf("workload %d: BENCHMARK.json %s, nfsperf %s", i, spec.Workloads[i].Name, workloads[i]().name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, nfsperf %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), nfsperf %s (%s)", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eUnits)
	same("per_layer", spec.PerLayer, layerUnits)
}

// The reply checker accepts the server's answers and rejects a READ whose
// payload differs from the block's pattern by one byte.
func TestCheckRejectsCorruptRead(t *testing.T) {
	r, _, err := setup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	g := &gen{tpl: templates(&r.tree), tree: &r.tree, conns: r.conns}
	c := r.conns[0]
	buf := make([]byte, 65536)
	for k := kind(0); k < kNamespace; k++ {
		o := op{kind: k, target: int32(targets[k] - 1)}
		req := append([]byte(nil), g.tpl[k][o.target]...)
		binary.BigEndian.PutUint32(req, uint32(100+k))
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(callDeadline))
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", kindNames[k], err)
		}
		if v := g.check(&o, false, buf[:n]); v != replyOK {
			t.Errorf("%s: verdict %d on the server's reply", kindNames[k], v)
		}
		if k == kRead {
			buf[n-1] ^= 1
			if v := g.check(&o, false, buf[:n]); v != replyContent {
				t.Errorf("corrupt READ: verdict %d, want %d", v, replyContent)
			}
		}
	}
}

// A short open-loop run of the full mix, with half its calls traced, is
// correct end to end: every reply checks out, nothing is lost or stray,
// and the server drains.
func TestShortRun(t *testing.T) {
	r, _, err := setup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	w := nhfsstoneMix()
	w.rate = 2000
	ops := schedule(w, 1, warmup+windowLen, len(r.conns))
	g := &gen{ops: ops, tpl: templates(&r.tree), tree: &r.tree, conns: r.conns,
		xidBase: 77, traced: func(i int) bool { return i%2 == 0 }}
	if err := g.run([]int64{int64(warmup), int64(warmup + windowLen)}, func(int) {}); err != nil {
		t.Fatal(err)
	}
	r.close()
	if err := checkDrain(r); err != nil {
		t.Error(err)
	}
	a := analyse(g, 1)
	if len(a.fails) > 0 || a.failed > 0 || len(a.all) == 0 {
		t.Errorf("%d calls answered, %d failed, checks: %v", len(a.all), a.failed, a.fails)
	}
}

// The echo reference answers its probes, and on Linux each reply carries
// the kernel's arrival stamp, so no round trip is timed from a wake-up.
func TestEchoReference(t *testing.T) {
	e, err := startEcho(1)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	time.Sleep(300 * time.Millisecond)
	samples, err := e.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 100 {
		t.Fatalf("%d probes answered in 300 ms at %d/s", len(samples), echoRate)
	}
	for _, s := range samples {
		if rtt := s.rxWall - s.sentWall; rtt <= 0 || rtt > int64(time.Second) {
			t.Fatalf("probe round trip %v", time.Duration(rtt))
		}
	}
	if again, err := e.stop(); again != nil || err != nil {
		t.Errorf("second stop returned %d probes, %v", len(again), err)
	}
	w := echoWindows(samples, base.Add(-warmup), 1)
	if len(w[0]) == 0 {
		t.Errorf("no probe fell in the first measured window")
	}
	if runtime.GOOS != "linux" {
		return
	}
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := enableRxStamps(c); err != nil {
		t.Fatal(err)
	}
	before := time.Now().UnixNano()
	if _, err := c.WriteToUDP([]byte("stamp"), c.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	oob := make([]byte, rxStampSpace)
	_, oobn, _, _, err := c.ReadMsgUDPAddrPort(make([]byte, 16), oob)
	if err != nil {
		t.Fatal(err)
	}
	if rx := rxStamp(oob[:oobn]); rx < before || rx > time.Now().UnixNano() {
		t.Errorf("arrival stamp %d outside [%d, now]", rx, before)
	}
}

// perEcho is the median over windows of the per-window quantile ratio, and
// skips windows without calls of the class.
func TestPerEcho(t *testing.T) {
	lat := [][]float64{{20, 30, 40}, {}, {60, 60, 60}, {10, 10, 10}}
	echo := [][]float64{{10, 15, 20}, {10}, {20, 20, 20}, {10, 10, 10}}
	if got := perEcho(lat, echo, 0.5); got != 2 {
		t.Errorf("perEcho = %v, want 2 (median of 2, 3, 1)", got)
	}
}
