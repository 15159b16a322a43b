package main

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"time"
)

// The reference round trip. On a shared virtual host the cost of a system
// call and of a goroutine wake-up drifts with the neighbours' load, by a
// third or more from one minute to the next, and a loopback NFS round trip
// is mostly those costs: a header-only call takes about 1.4 round trips of
// a bare UDP echo served beside the server. So while the load runs, an
// echo is probed at a low Poisson rate, and the end-to-end latencies are
// reported as multiples of the echo round trip measured in the same
// one-second window. A drift of the host moves both and cancels; work the
// server adds to a call moves only the numerator.
//
// The echo shares the server's process and runtime on purpose: its round
// trip then pays for the same netpoller wake-ups and goroutine hand-offs as
// a call, which are the costs that drift.

// echoRate is the probes' mean rate. At 1000/s a one-second window's
// median rests on about a thousand round trips, while the echo adds a few
// per cent to the heaviest workload's call rate.
const echoRate = 1000

// echoPayload is the probe size, about that of a header-only NFS call.
const echoPayload = 128

// echo is the running reference: an echo server and a prober, each on its
// own loopback socket, with their own goroutines.
type echo struct {
	srv, cli *net.UDPConn
	stopc    chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	sent    map[uint32]int64 // outstanding probes' send times
	samples []echoSample
	err     error
}

// echoSample is one answered probe, timed as the calls are: from the
// moment it was handed to the kernel to the reply's arrival stamp, as
// wall-clock ns since the epoch.
type echoSample struct {
	sentWall, rxWall int64
}

// startEcho starts the echo and its Poisson prober, whose gaps are drawn
// from seed.
func startEcho(seed int64) (*echo, error) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.Close()
		return nil, err
	}
	if err := enableRxStamps(cli); err != nil {
		srv.Close()
		cli.Close()
		return nil, err
	}
	p, err := newPacer()
	if err != nil {
		srv.Close()
		cli.Close()
		return nil, err
	}
	e := &echo{srv: srv, cli: cli, stopc: make(chan struct{}), sent: make(map[uint32]int64)}
	e.wg.Add(3)
	go e.serve()
	go e.receive()
	go func() {
		defer e.wg.Done()
		defer p.close()
		e.probe(p, seed)
	}()
	return e, nil
}

func (e *echo) serve() {
	defer e.wg.Done()
	b := make([]byte, 2048)
	for {
		n, a, err := e.srv.ReadFromUDP(b)
		if err != nil {
			return
		}
		// A reply that cannot be sent is a lost probe, which is never
		// answered and so is not a sample.
		_, _ = e.srv.WriteToUDP(b[:n], a)
	}
}

func (e *echo) receive() {
	defer e.wg.Done()
	b := make([]byte, 2048)
	oob := make([]byte, max(rxStampSpace, 1))
	for {
		n, oobn, _, _, err := e.cli.ReadMsgUDPAddrPort(b, oob)
		if err != nil {
			return
		}
		rx := rxStamp(oob[:oobn])
		if rx == 0 {
			rx = time.Now().UnixNano()
		}
		if n < 4 {
			continue
		}
		i := binary.BigEndian.Uint32(b)
		e.mu.Lock()
		if at, ok := e.sent[i]; ok {
			delete(e.sent, i)
			e.samples = append(e.samples, echoSample{at, rx})
		}
		e.mu.Unlock()
	}
}

// probe sends probes until stop. A lost probe is never answered and is
// not sent again.
func (e *echo) probe(p *pacer, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	req := make([]byte, echoPayload)
	mono := monoNow()
	for i := uint32(0); ; i++ {
		select {
		case <-e.stopc:
			return
		default:
		}
		mono += int64(rng.ExpFloat64() * float64(time.Second) / echoRate)
		if err := p.sleepUntil(mono); err != nil {
			e.mu.Lock()
			e.err = err
			e.mu.Unlock()
			return
		}
		binary.BigEndian.PutUint32(req, i)
		e.mu.Lock()
		e.sent[i] = time.Now().UnixNano()
		e.mu.Unlock()
		_, _ = e.cli.Write(req) // a probe that fails to leave is a lost one
	}
}

// stop ends the echo, waits for its goroutines and returns its probes.
// Only the first call does anything; the prober leaves at its next wake-up.
func (e *echo) stop() ([]echoSample, error) {
	var samples []echoSample
	var err error
	e.once.Do(func() {
		close(e.stopc)
		e.srv.Close()
		e.cli.Close()
		e.wg.Wait()
		samples, err = e.samples, e.err
	})
	return samples, err
}

// echoWindows bins the probes into the measured windows of a run whose
// schedule began at base, as round trips in µs.
func echoWindows(samples []echoSample, base time.Time, nwin int) [][]float64 {
	w := make([][]float64, nwin)
	for _, s := range samples {
		if k := windowOf(s.sentWall - base.UnixNano()); k >= 0 && k < nwin {
			w[k] = append(w[k], float64(s.rxWall-s.sentWall)/1e3)
		}
	}
	return w
}
