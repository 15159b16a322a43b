package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Pacing. time.Sleep wakes close to a millisecond late, which would swamp
// loopback round trips of tens of microseconds, and a clock_nanosleep
// would hold the sender's P for the whole sleep, starving the server's
// goroutines of the host's two CPUs. A pacer is instead an absolute-deadline
// timerfd read through the runtime's poller: the sender parks without a P,
// and the poller wakes it within microseconds of the deadline.
type pacer struct {
	fd int
	f  *os.File
}

type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdAbstime     = 1
)

func newPacer() (*pacer, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks until CLOCK_MONOTONIC reaches mono (ns).
func (p *pacer) sleepUntil(mono int64) error {
	spec := itimerspec{value: syscall.NsecToTimespec(mono)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), tfdAbstime,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var buf [8]byte
	_, err := p.f.Read(buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

// monoNow reads CLOCK_MONOTONIC, the clock Go's monotonic time uses.
func monoNow() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// rusage returns the process's user+system CPU time (ns) and peak RSS (bytes).
func rusage() (cpuNS, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss * 1024
}

// kernelRelease is uname -r.
func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// udpRcvbufErrors reads the host-wide UDP RcvbufErrors counter: datagrams
// the kernel dropped because a socket's receive buffer was full. ok is
// false when the counter cannot be read.
func udpRcvbufErrors() (n int64, ok bool) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}

// Arrival stamps. With SO_TIMESTAMPNS the kernel stamps each datagram a
// socket receives with the time it was queued there, so a round trip is
// timed without the receiving goroutine's wake-up, which is the client's
// cost and not the server's.

// enableRxStamps turns on SO_TIMESTAMPNS on c.
func enableRxStamps(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// rxStampSpace is the control-message buffer a read needs for the stamp.
var rxStampSpace = syscall.CmsgSpace(int(unsafe.Sizeof(syscall.Timespec{})))

// rxStamp returns the arrival stamp (ns since the epoch) carried in the
// control messages of one read, or 0 when there is none. It does not
// allocate.
func rxStamp(oob []byte) int64 {
	if len(oob) < rxStampSpace {
		return 0
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	if h.Level != syscall.SOL_SOCKET || h.Type != syscall.SCM_TIMESTAMPNS || int(h.Len) < syscall.CmsgLen(16) {
		return 0
	}
	return (*syscall.Timespec)(unsafe.Pointer(&oob[syscall.CmsgLen(0)])).Nano()
}
