package renonfs

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"renonfs/internal/sim"
	"renonfs/internal/stats"
)

func TestRigSmoke(t *testing.T) {
	r := NewRig(RigConfig{Seed: 1})
	defer r.Close()
	var got string
	r.Env.Spawn("smoke", func(p *sim.Proc) {
		m, err := r.Mount(p, TCP, RenoClient())
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		f, err := m.Create(p, "hello.txt", 0644)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(p, []byte("hello over tcp"))
		f.Close(p)
		g, err := m.Open(p, "hello.txt")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, _ := g.Read(p, buf)
		got = string(buf[:n])
		g.Close(p)
	})
	r.Env.Run(5 * time.Minute)
	if got != "hello over tcp" {
		t.Fatalf("got %q", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	want := []string{"graph1", "graph2", "graph3", "graph4", "graph5", "table1",
		"graph6", "graph7", "graph8", "graph9", "profile3",
		"table2", "table3", "table4", "table5", "appendixA", "ablations",
		"futurework", "saturation"}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if _, err := RunExperiment("no-such", ExpConfig{}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tb *stats.Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %q missing cell (%d,%d):\n%s", tb.Title, row, col, tb)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(tb.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestGraph1QuickShape(t *testing.T) {
	tabs, err := RunExperiment("graph1", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb)
	}
	// At the lowest load on a clean LAN: TCP lookups should cost a few ms
	// more than UDP (the paper: ~+7ms fixed offset).
	udpDyn := cell(t, tb, 0, 2)
	tcp := cell(t, tb, 0, 3)
	if tcp <= udpDyn {
		t.Errorf("LAN lookup RTT: tcp %.2f <= udp-dyn %.2f; paper shows a TCP premium\n%s", tcp, udpDyn, tb)
	}
	if tcp-udpDyn > 40 {
		t.Errorf("TCP premium %.2f ms implausibly large\n%s", tcp-udpDyn, tb)
	}
}

func TestGraph6QuickShape(t *testing.T) {
	tabs, err := RunExperiment("graph6", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	// Averaged over the load points, TCP must cost more server CPU than
	// UDP, in the ballpark of the paper's ~20%.
	sum := 0.0
	for i := range tb.Rows {
		sum += cell(t, tb, i, 3)
	}
	ratio := sum / float64(len(tb.Rows))
	if ratio < 1.05 || ratio > 1.6 {
		t.Errorf("mean tcp/udp server CPU ratio = %.2f, want ~1.2\n%s", ratio, tb)
	}
}

func TestProfile3QuickShape(t *testing.T) {
	tabs, err := RunExperiment("profile3", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	before := tabs[0]
	// The top pre-tuning bucket must be the NIC copy path (§3: over a
	// third of CPU cycles in low-level network interface handling).
	if before.Rows[0][0] != "nic_copy" {
		t.Errorf("top bucket before tuning = %q, want nic_copy\n%s", before.Rows[0][0], before)
	}
	// Saving within a plausible band around the paper's ~12%.
	summary := tabs[2]
	saving := cell(t, summary, 2, 1)
	if saving < 5 || saving > 30 {
		t.Errorf("tuning saving = %.1f%%, want 5-30%%\n%s", saving, summary)
	}
}

func TestGraph8QuickShape(t *testing.T) {
	tabs, err := RunExperiment("graph8", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	// The Ultrix server must be slower for lookups at every load.
	for i := range tb.Rows {
		reno := cell(t, tb, i, 1)
		ultrix := cell(t, tb, i, 2)
		if ultrix <= reno {
			t.Errorf("row %d: ultrix %.2f <= reno %.2f\n%s", i, ultrix, reno, tb)
		}
	}
}

func TestTable5QuickShape(t *testing.T) {
	tabs, err := RunExperiment("table5", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d\n%s", len(tb.Rows), tb)
	}
	// 100KB column: local < write-thru; noconsist dramatically faster
	// than every consistent NFS config (Table 5's headline).
	local := cell(t, tb, 0, 3)
	wthru := cell(t, tb, 1, 3)
	noc := cell(t, tb, 5, 3)
	if !(local < wthru) {
		t.Errorf("local %.0f >= write-thru %.0f\n%s", local, wthru, tb)
	}
	if !(noc*3 < wthru) {
		t.Errorf("noconsist %.0f not << write-thru %.0f\n%s", noc, wthru, tb)
	}
	// No-data column: all NFS configs within the same ballpark.
	for i := 1; i < 6; i++ {
		v := cell(t, tb, i, 1)
		if v <= 0 || v > 3000 {
			t.Errorf("row %d no-data = %.0f ms\n%s", i, v, tb)
		}
	}
}

func TestFutureWorkQuickShape(t *testing.T) {
	tabs, err := RunExperiment("futurework", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d", len(tabs))
	}
	// Create-Delete 100K: leases must land near the noconsist bound and
	// far below push-on-close Reno.
	cd := tabs[1]
	reno := cell(t, cd, 0, 1)
	leases := cell(t, cd, 1, 1)
	bound := cell(t, cd, 2, 1)
	if !(leases < reno/2) {
		t.Errorf("leases %.0f not well below push-on-close %.0f\n%s", leases, reno, cd)
	}
	if leases > 2*bound {
		t.Errorf("leases %.0f far from the noconsist bound %.0f\n%s", leases, bound, cd)
	}
	// ls -lR: the extension must collapse the per-file lookup storm.
	ls := tabs[2]
	stdTotal := cell(t, ls, 0, 4)
	extTotal := cell(t, ls, 1, 4)
	if !(extTotal*5 < stdTotal) {
		t.Errorf("readdirlook total %.0f not <<5x standard %.0f\n%s", extTotal, stdTotal, ls)
	}
}

func TestTable3QuickShape(t *testing.T) {
	tabs, err := RunExperiment("table3", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d\n%s", len(tb.Rows), tb)
	}
	find := func(name string) int {
		for i, r := range tb.Rows {
			if r[0] == name {
				return i
			}
		}
		t.Fatalf("row %q missing", name)
		return -1
	}
	lk := find("Lookup")
	if !(cell(t, tb, lk, 3) > 1.5*cell(t, tb, lk, 1)) {
		t.Errorf("lookups: Ultrix should be >1.5x Reno\n%s", tb)
	}
	rd := find("Read")
	if !(cell(t, tb, rd, 1) > cell(t, tb, rd, 3)) {
		t.Errorf("reads: Reno should exceed Ultrix\n%s", tb)
	}
	wr := find("Write")
	if !(cell(t, tb, wr, 3) > cell(t, tb, wr, 1)) || !(cell(t, tb, wr, 2) < cell(t, tb, wr, 1)) {
		t.Errorf("writes: want Ultrix > Reno > noconsist\n%s", tb)
	}
}

func TestSaturationQuickShape(t *testing.T) {
	tabs, err := RunExperiment("saturation", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d\n%s", len(tb.Rows), tb)
	}
	// At the lowest load the server keeps up; at the highest it is
	// CPU-saturated and the achieved rate has plateaued well below offered.
	lowOffered, lowAchieved := cell(t, tb, 0, 0), cell(t, tb, 0, 1)
	hiOffered, hiAchieved := cell(t, tb, 2, 0), cell(t, tb, 2, 1)
	hiCPU := cell(t, tb, 2, 3)
	// Quick windows undercount window-edge operations; 70% is plenty to
	// distinguish "keeping up" from the saturated plateau.
	if lowAchieved < 0.7*lowOffered {
		t.Errorf("under light load achieved %.1f << offered %.1f\n%s", lowAchieved, lowOffered, tb)
	}
	if hiAchieved > 0.75*hiOffered {
		t.Errorf("no saturation: achieved %.1f at offered %.1f\n%s", hiAchieved, hiOffered, tb)
	}
	if hiCPU < 60 {
		t.Errorf("server CPU %.0f%% at saturation; should be CPU bound\n%s", hiCPU, tb)
	}
	// Response time degrades across the sweep.
	if !(cell(t, tb, 2, 2) > 2*cell(t, tb, 0, 2)) {
		t.Errorf("RTT did not degrade with load\n%s", tb)
	}
}

// TestSaturationQuickDeterministic pins that one seed renders one table: the
// saturation sweep drives clients into retransmission, and calls that
// expire in the same timer tick must go out in the same order every run.
func TestSaturationQuickDeterministic(t *testing.T) {
	render := func() string {
		tabs, err := RunExperiment("saturation", ExpConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, tb := range tabs {
			out += tb.String()
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Errorf("two quick saturation runs differ:\n%s\n%s", a, b)
	}
}
