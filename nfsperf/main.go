// Command nfsperf is renonfs's end-to-end benchmark. It starts the
// real-socket NFS server in-process (server.New plus nfsnet.Serve with
// cmd/nfsd's defaults), drives it over loopback UDP with an open-loop,
// Poisson-paced schedule drawn from --seed, checks every reply, and reports
// client-observed latency measured from each call's scheduled send time.
// With --trace 1 it instead reports the per-layer split of the same load:
// the server's stage histograms and counters over the measured window, its
// slowest spans joined to client spans by XID, and the server core timed
// without sockets. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash nfsperf/run.sh --workload meta-light --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// warmup runs the schedule before the measured window, so caches are
	// filled and lazy set-up is done before timing starts.
	warmup = time.Second
	// windowLen splits the measured window; latency and CPU figures are
	// medians over windows, so one stall (a GC, a descheduled vCPU) moves
	// one window and not the result.
	windowLen = time.Second
	// Generator health bounds: a run whose generator sent less than
	// minAchieved of the offered calls inside the window, or ran later than
	// maxLateP50 at its median, measured the generator rather than the
	// server and is refused.
	minAchieved = 0.95
	maxLateP50  = 250 * time.Microsecond
	// outDir receives the per-run record and the Chrome trace.
	outDir = ".bench_build/out"
)

// End-to-end metrics (--trace 0) and their units. Latencies are
// multiples of the reference echo round trip (see echo.go); the same
// latencies in µs, their tails, and the CPU time per call are per-layer
// metrics.
var e2eUnits = []nameUnit{
	{"setup_s", "s"},
	{"lat_p50_x_echo", "ratio"}, {"meta_p50_x_echo", "ratio"}, {"data_p50_x_echo", "ratio"},
	{"goodput_ops", "1/s"}, {"data_mb_s", "MB/s"},
	{"fail_frac", "ratio"}, {"peak_rss_mb", "MB"},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nfsperf: %v\n", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() error {
	var (
		wname   = flag.String("workload", "", "workload: meta-light, rw-8k or nhfsstone-mix")
		seed    = flag.Int64("seed", 1, "seed of the op schedule")
		seconds = flag.Int("seconds", 10, "length of the measured window, in seconds")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead")
	)
	flag.Parse()
	w, err := workloadByName(*wname)
	if err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	senders := min(2, runtime.NumCPU())
	measured := time.Duration(*seconds) * time.Second
	ops := schedule(w, *seed, warmup+measured, senders)
	if len(ops) == 0 {
		return errors.New("empty schedule")
	}

	r, setupS, err := setup(senders)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	g := &gen{
		ops: ops, tpl: templates(&r.tree), tree: &r.tree, conns: r.conns,
		xidBase: rand.New(rand.NewSource(*seed)).Uint32(),
		traced:  func(int) bool { return false },
	}
	if *trace == 1 {
		// Odd windows record client spans, even ones do not, so the
		// tracing overhead is measured interleaved with its baseline.
		g.traced = func(i int) bool { return windowOf(ops[i].at)%2 == 1 }
	}
	ref, err := startEcho(*seed)
	if err != nil {
		return err
	}
	defer ref.stop()
	runtime.GC()

	nwin := *seconds
	bounds := make([]int64, nwin+1)
	for k := range bounds {
		bounds[k] = int64(warmup) + int64(k)*int64(windowLen)
	}
	cpu := make([]int64, nwin+1)
	var snapA, snapB layerSnap
	err = g.run(bounds, func(k int) {
		cpu[k], _ = rusage()
		switch {
		case *trace == 0:
		case k == 0:
			snapA = takeSnap(r)
		case k == nwin:
			snapB = takeSnap(r)
		}
	})
	if err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	probes, err := ref.stop()
	if err != nil {
		return err
	}
	echoWin := echoWindows(probes, g.base, nwin)
	for k, w := range echoWin {
		if len(w) < minEchoProbes {
			return fmt.Errorf("echo reference starved, run invalid: %d probes answered in window %d (want %d)", len(w), k, minEchoProbes)
		}
	}

	var fails []string
	var replayNS map[string]float64
	if *trace == 1 {
		if replayNS, err = replay(r.srv, g); err != nil {
			fails = append(fails, err.Error())
		}
	}
	spans := r.net.Stages().Ring().Slowest()
	r.close()
	if err := checkDrain(r); err != nil {
		fails = append(fails, err.Error())
	}

	a := analyse(g, nwin)
	fails = append(fails, a.fails...)
	if a.achieved < minAchieved*a.offered || a.lateP50 > float64(maxLateP50.Microseconds()) {
		return fmt.Errorf("generator starved, run invalid: sent %.0f/s of %.0f/s offered in the window, lateness p50 %.0f µs (bounds %.0f%%, %v)",
			a.achieved, a.offered, a.lateP50, minAchieved*100, maxLateP50)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// The latencies in µs, the tails and the CPU time per call drift with
	// the host; they are per-layer metrics, and every run's record keeps
	// them.
	var cpuPerOp, allEcho, allRTT []float64
	for k := 0; k < nwin; k++ {
		cpuPerOp = append(cpuPerOp, ratio(float64(cpu[k+1]-cpu[k])/1e3, float64(a.completed[k])))
		allEcho = append(allEcho, echoWin[k]...)
		allRTT = append(allRTT, a.rttAll[k]...)
	}
	raw := map[string]float64{
		"lat_p50_us":    spanP50(a.all),
		"lat_p99_us":    spanP99(a.all),
		"meta_p50_us":   spanP50(a.meta),
		"meta_p99_us":   spanP99(a.meta),
		"data_p50_us":   spanP50(a.data),
		"data_p99_us":   spanP99(a.data),
		"cpu_us_per_op": median(cpuPerOp),
		"rtt_p50_us":    quantile(allRTT, 0.5),
		"rtt_p99_us":    quantile(allRTT, 0.99),
		// The tail as a ratio spreads too widely between runs to be bounded.
		"lat_p90_x_echo": perEcho(a.rttAll, echoWin, 0.9),
		"echo.p50_us":    quantile(allEcho, 0.5),
		"echo.p99_us":    quantile(allEcho, 0.99),
	}
	// Each window's round trips (µs), for reading a run afterwards.
	var windows [][8]float64
	for k := 0; k < nwin; k++ {
		q := func(xs []float64, p float64) float64 { return quantile(append([]float64(nil), xs...), p) }
		windows = append(windows, [8]float64{q(echoWin[k], 0.5), q(echoWin[k], 0.9), q(echoWin[k], 0.99),
			q(a.rttAll[k], 0.5), q(a.rttAll[k], 0.9), q(a.rttAll[k], 0.99), q(a.rttMeta[k], 0.5), q(a.rttData[k], 0.5)})
	}
	metrics := make(map[string]metricValue)
	if *trace == 0 {
		_, maxRSS := rusage()
		vals := map[string]float64{
			"setup_s":         setupS,
			"lat_p50_x_echo":  perEcho(a.rttAll, echoWin, 0.5),
			"meta_p50_x_echo": perEcho(a.rttMeta, echoWin, 0.5),
			"data_p50_x_echo": perEcho(a.rttData, echoWin, 0.5),
			"goodput_ops":     float64(len(a.all)) / float64(nwin),
			"data_mb_s":       float64(len(a.data)) * blockBytes / float64(nwin) / 1e6,
			"fail_frac":       float64(a.failed+1) / float64(a.attempted+1),
			"peak_rss_mb":     float64(maxRSS) / (1 << 20),
		}
		for _, e := range e2eUnits {
			metrics[e.name] = metricValue{vals[e.name], e.unit}
		}
	} else {
		lm := layerMetrics(layerInput{
			a: snapA, b: snapB, windowS: float64(nwin), nfsds: r.srv.Opts.NFSDs,
			completed: float64(len(a.all)), clientMean: mean(a.all),
		})
		for k, v := range replayNS {
			lm[k] = v
		}
		for k, v := range a.loadgen() {
			lm[k] = v
		}
		for k, v := range raw {
			lm[k] = v
		}
		joined, err := writeTrace(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)), g, spans)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		lm["loadgen.trace_joined_spans"] = float64(joined)
		for _, l := range layerUnits {
			v, ok := lm[l.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not computed", l.name)
			}
			metrics[l.name] = metricValue{v, l.unit}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}

	res := result{Correct: len(fails) == 0, Attempted: a.attempted, Failed: a.failed, Metrics: metrics}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "nfsperf: check failed: %s\n", f)
	}
	env := envelope(w, *seed, *seconds, senders, ops)
	head, err := json.Marshal(map[string]any{"envelope": env})
	if err != nil {
		return err
	}
	fmt.Println(string(head))
	record, err := json.MarshalIndent(map[string]any{"envelope": env, "result": res,
		"offered_ops": a.offered, "late": a.late, "unanswered": a.unanswered,
		"retransmits": a.retransmits, "late_p50_us": a.lateP50, "raw": raw,
		"windows_us": windows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), record, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// windowOf is the index of the measured window holding offset at, or -1
// for the warm-up.
func windowOf(at int64) int {
	if at < int64(warmup) {
		return -1
	}
	return int((at - int64(warmup)) / int64(windowLen))
}

// minEchoProbes is the fewest answered echo probes a measured window may
// hold; fewer means the host starved the reference, and the run is refused.
const minEchoProbes = 200

// perEcho is the median over the measured windows of the ratio between a
// window's p-quantile latency and that of the echo probes sent in it.
// Windows without calls of the class are skipped.
func perEcho(lat, echo [][]float64, p float64) float64 {
	var r []float64
	for k := range lat {
		if len(lat[k]) == 0 {
			continue
		}
		r = append(r, quantile(append([]float64(nil), lat[k]...), p)/quantile(append([]float64(nil), echo[k]...), p))
	}
	return median(r)
}

// spanLen is the number of consecutive calls of a class one latency
// quantile is taken over; with 1000, a span's p99 rests on ten calls
// beyond it.
const spanLen = 1000

// spanQuantiles splits xs (latencies in schedule order) into consecutive
// spans of spanLen calls, the last absorbing the remainder, and returns
// each span's p-quantile.
func spanQuantiles(xs []float64, p float64) []float64 {
	n := max(len(xs)/spanLen, 1)
	per := make([]float64, n)
	for i := range per {
		lo, hi := i*spanLen, (i+1)*spanLen
		if i == n-1 {
			hi = len(xs)
		}
		per[i] = quantile(append([]float64(nil), xs[lo:hi]...), p)
	}
	return per
}

// spanP50 is the median over spans of each span's median latency.
func spanP50(xs []float64) float64 { return median(spanQuantiles(xs, 0.5)) }

// spanP99 is the 10th percentile over spans of each span's p99. The host
// is a shared virtual machine whose vCPUs are descheduled for milliseconds
// at a time, often enough that the p99 of most one-second windows measures
// the neighbours; the low percentile over spans is the tail the server
// imposes while the host is quiet. A change that lengthens the tail of
// every span moves it; host stalls that hit some spans do not.
func spanP99(xs []float64) float64 { return quantile(spanQuantiles(xs, 0.99), 0.1) }

// analysis is the classified outcome of a run's measured window.
type analysis struct {
	// Latencies (µs) of the calls answered on time and correctly, in
	// schedule order: all of them, header-only ones, READs and WRITEs.
	all, meta, data []float64
	completed       []int64     // such calls per window
	winLat          [][]float64 // per window, for the tracing overhead
	// Per window, the round trips on the wire (µs, see slot.sendWall) of
	// every call, of header-only calls, and of READs and WRITEs.
	rttAll, rttMeta, rttData [][]float64
	attempted                int64
	failed                   int64
	late                     int64
	unanswered               int64
	offered                  float64 // calls/s scheduled inside the window
	achieved                 float64 // calls/s actually sent inside the window
	lateP50                  float64 // µs
	lateP99                  float64 // µs
	retransmits              int64
	encNS                    []float64
	sysNS                    []float64
	decNS                    []float64
	fails                    []string
}

// analyse classifies every call and checks the client's conservation law:
// every call sent was answered on time, answered late, or not answered.
func analyse(g *gen, nwin int) *analysis {
	a := &analysis{completed: make([]int64, nwin), winLat: make([][]float64, nwin),
		rttAll: make([][]float64, nwin), rttMeta: make([][]float64, nwin), rttData: make([][]float64, nwin)}
	var verdicts [numKinds][4]int64
	var unanswered, done int64
	var lateness []float64
	sentInWindow := 0
	lo, hi := int64(warmup), int64(warmup)+int64(nwin)*int64(windowLen)
	for i := range g.ops {
		o, sl := &g.ops[i], &g.slots[i]
		st := sl.state.Load()
		switch st {
		case slotUnsent:
			a.fails = append(a.fails, fmt.Sprintf("call %d was never sent", i))
			continue
		case slotSent:
			unanswered++
		case slotDone:
			done++
			verdicts[o.kind][sl.verdict]++
		}
		if sl.sendNS >= lo && sl.sendNS < hi {
			sentInWindow++
		}
		k := windowOf(o.at)
		if k < 0 || k >= nwin {
			continue
		}
		a.attempted++
		lateness = append(lateness, float64(sl.sendNS-o.at)/1e3)
		lat := sl.doneNS - o.at
		if st != slotDone || sl.verdict != replyOK || lat > int64(callDeadline) {
			a.failed++
			if st == slotSent {
				a.unanswered++
			} else if lat > int64(callDeadline) {
				a.late++
			}
			continue
		}
		us := float64(lat) / 1e3
		rtt := float64(sl.rxWall-sl.sendWall) / 1e3
		a.all = append(a.all, us)
		a.rttAll[k] = append(a.rttAll[k], rtt)
		if o.kind.data() {
			a.data = append(a.data, us)
			a.rttData[k] = append(a.rttData[k], rtt)
		} else {
			a.meta = append(a.meta, us)
			a.rttMeta[k] = append(a.rttMeta[k], rtt)
		}
		a.completed[k]++
		a.winLat[k] = append(a.winLat[k], us)
		if sl.traced {
			a.encNS = append(a.encNS, float64(sl.encNS))
			a.sysNS = append(a.sysNS, float64(sl.sysNS))
			a.decNS = append(a.decNS, float64(sl.decNS))
		}
	}
	a.offered = float64(a.attempted) / float64(nwin)
	a.achieved = float64(sentInWindow) / float64(nwin)
	a.lateP50 = quantile(lateness, 0.5)
	a.lateP99 = quantile(lateness, 0.99)
	a.retransmits = g.retransmits.Load()

	sent, onTime, late := g.sent.Load(), g.onTime.Load(), g.late.Load()
	if sent != onTime+late+unanswered || done != onTime+late {
		a.fails = append(a.fails, fmt.Sprintf("conservation: sent %d != on time %d + late %d + unanswered %d",
			sent, onTime, late, unanswered))
	}
	if n := g.stray.Load(); n > 0 {
		a.fails = append(a.fails, fmt.Sprintf("%d replies matched no outstanding call", n))
	}
	for k := range verdicts {
		for v, what := range map[uint8]string{replyRPC: "RPC-level errors", replyStatus: "unexpected NFS statuses",
			replyContent: "replies with wrong contents"} {
			if n := verdicts[k][v]; n > 0 {
				a.fails = append(a.fails, fmt.Sprintf("%d %s on %s", n, what, kindNames[k]))
			}
		}
	}
	return a
}

// loadgen reports the generator's own health and its client spans. Odd
// windows were traced and even ones not, so the tracing overhead is the
// difference of their median p50s.
func (a *analysis) loadgen() map[string]float64 {
	var traced, untraced []float64
	for k, xs := range a.winLat {
		if k%2 == 1 {
			traced = append(traced, quantile(xs, 0.5))
		} else {
			untraced = append(untraced, quantile(xs, 0.5))
		}
	}
	overhead := 0.0
	if len(traced) > 0 && len(untraced) > 0 {
		overhead = median(traced) - median(untraced)
	}
	return map[string]float64{
		"loadgen.late_p50_us":       a.lateP50,
		"loadgen.late_p99_us":       a.lateP99,
		"loadgen.achieved_ops":      a.achieved,
		"loadgen.encode_ns":         median(a.encNS),
		"loadgen.send_ns":           median(a.sysNS),
		"loadgen.decode_ns":         median(a.decNS),
		"loadgen.client_mean_us":    mean(a.all),
		"loadgen.trace_overhead_us": overhead,
		"loadgen.retransmits":       float64(a.retransmits),
	}
}

// envelope describes the host and the run, so a figure is never read
// without knowing where it came from.
func envelope(w workload, seed int64, seconds, senders int, ops []op) map[string]any {
	rev := os.Getenv("NFSPERF_GIT_REV")
	if rev == "" {
		rev = "unavailable"
	}
	return map[string]any{
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"git_revision":    rev,
		"source_digest":   sourceDigest(),
		"kernel":          kernelRelease(),
		"command_line":    strings.Join(os.Args, " "),
		"network":         "loopback, not a wire",
		"workload":        w.name,
		"offered_rate":    w.rate,
		"seed":            seed,
		"seconds":         seconds,
		"senders":         senders,
		"schedule_sha256": fingerprint(ops),
	}
}

// sourceDigest hashes the Go sources and module files of the checkout the
// benchmark was started in, identifying the code measured when the
// checkout carries no git metadata.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
