//go:build !linux

package main

import (
	"net"
	"time"
)

// Portable fallbacks: coarse time.Sleep pacing and no process or kernel
// counters. Figures from such a host are not comparable with Linux ones.

var monoBase = time.Now()

type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(mono int64) error {
	time.Sleep(time.Duration(mono - monoNow()))
	return nil
}

func (*pacer) close() {}

func monoNow() int64 { return int64(time.Since(monoBase)) }

func rusage() (cpuNS, maxRSS int64) { return 0, 0 }

func kernelRelease() string { return "unknown" }

func udpRcvbufErrors() (int64, bool) { return 0, false }

func enableRxStamps(*net.UDPConn) error { return nil }

const rxStampSpace = 0

// rxStamp has no kernel stamp here; the caller stamps the read itself.
func rxStamp([]byte) int64 { return 0 }
