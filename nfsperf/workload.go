package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"renonfs/internal/nfsproto"
)

// kind is one operation the generator issues. kNamespace is a virtual
// client's CREATE or REMOVE of its own temp name: which of the two is
// decided at send time from the outcome of the client's previous call, so
// a dropped call never turns the next one into an ENOENT or EEXIST.
type kind uint8

const (
	kLookup kind = iota
	kGetattr
	kReadlink
	kReaddir
	kStatfs
	kSetattr
	kRead
	kWrite
	kNamespace
	numKinds
)

var kindNames = [numKinds]string{
	"lookup", "getattr", "readlink", "readdir", "statfs", "setattr", "read", "write", "namespace",
}

// data reports whether k carries an 8 KB payload (the data class); every
// other kind is a header-only call (the meta class).
func (k kind) data() bool { return k == kRead || k == kWrite }

// The preloaded tree every workload runs against. Names stay within the
// 31-character Reno name-cache limit. The data files total 512 blocks,
// well above the server's 192-buffer cache, so rw-8k misses in it.
const (
	metaFiles     = 256 // /meta/fNNN, 512 bytes each
	metaLinks     = 16  // /meta/lNN -> fNNN
	metaDirs      = 4   // /meta/dN, dirEntries files each, one READDIR page
	dirEntries    = 24
	metaFileBytes = 512
	dataFiles     = 64 // /data/rNN, dataBlocks 8 KB blocks each
	dataBlocks    = 8
	blockBytes    = nfsproto.MaxData
	readdirCount  = 2048 // the largest READDIR the shallow path serves
)

// targets is the number of distinct requests of each kind; an op's target
// indexes into it. kNamespace targets are virtual clients (unbounded).
var targets = [numKinds]int{
	kLookup:   metaFiles,
	kGetattr:  metaFiles,
	kReadlink: metaLinks,
	kReaddir:  metaDirs,
	kStatfs:   1,
	kSetattr:  dataFiles,
	kRead:     dataFiles * dataBlocks,
	kWrite:    dataFiles * dataBlocks,
}

// workload is one open-loop traffic mix at a fixed offered rate. The rate
// is a constant, never derived from a measured capacity, so a faster
// server receives exactly the same load as a slower one.
type workload struct {
	name string
	rate float64 // offered calls per second
	mix  [numKinds]float64
}

// fullMix is workload.FullMix (the paper's Nhfsstone default mix) in this
// generator's kinds: its CREATE and REMOVE shares merge into kNamespace.
func fullMix() [numKinds]float64 {
	return [numKinds]float64{
		kGetattr: 0.13, kSetattr: 0.01, kLookup: 0.34, kReadlink: 0.08,
		kRead: 0.22, kWrite: 0.15, kNamespace: 0.03, kReaddir: 0.03, kStatfs: 0.01,
	}
}

// probeShare is the slice of each single-class workload given to the other
// class, so that every workload reports both meta and data latencies.
const probeShare = 0.05

func metaLight() workload {
	full := fullMix()
	w := workload{name: "meta-light", rate: 15000}
	var sum float64
	for _, k := range []kind{kLookup, kGetattr, kReadlink, kReaddir, kStatfs} {
		sum += full[k]
	}
	for _, k := range []kind{kLookup, kGetattr, kReadlink, kReaddir, kStatfs} {
		w.mix[k] = full[k] / sum * (1 - probeShare)
	}
	w.mix[kRead] = probeShare
	return w
}

func rw8k() workload {
	w := workload{name: "rw-8k", rate: 5000}
	w.mix[kRead] = 0.6 * (1 - probeShare)
	w.mix[kWrite] = 0.4 * (1 - probeShare)
	w.mix[kGetattr] = probeShare
	return w
}

func nhfsstoneMix() workload {
	return workload{name: "nhfsstone-mix", rate: 12000, mix: fullMix()}
}

var workloads = []func() workload{metaLight, rw8k, nhfsstoneMix}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, mk := range workloads {
		w := mk()
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one scheduled call. at is its send time as an offset from the
// start of the schedule; lateness and latency are both measured from it.
type op struct {
	at     int64
	kind   kind
	sender uint8
	target int32
}

// nsSpacing is the least time between two namespace calls of one virtual
// client. It exceeds the reply deadline, so a client's previous call has
// either been answered or timed out before its next one is due.
const nsSpacing = callDeadline + 200*time.Millisecond

// schedule draws the open-loop op sequence for w: Poisson arrivals at
// w.rate over length, each op's kind from the mix, its target uniformly,
// and its sender socket at random (a random split of a Poisson stream is
// Poisson). Namespace ops go to the least recently used virtual client
// that has been idle for nsSpacing, or to a new one; a virtual client
// always uses the same sender, so one goroutine owns its state.
func schedule(w workload, seed int64, length time.Duration, senders int) []op {
	rng := rand.New(rand.NewSource(seed))
	var cum [numKinds]float64
	var total float64
	for k := range w.mix {
		total += w.mix[k]
		cum[k] = total
	}
	meanGap := float64(time.Second) / w.rate
	ops := make([]op, 0, int(w.rate*length.Seconds()*1.05)+16)
	type idleClient struct {
		id   int32
		last int64
	}
	var idle []idleClient // FIFO, least recently used first
	nextVC := int32(0)
	t := 0.0
	for {
		t += rng.ExpFloat64() * meanGap
		if t >= float64(length) {
			return ops
		}
		u := rng.Float64() * total
		k := kind(sort.SearchFloat64s(cum[:], u))
		if k >= numKinds {
			k = numKinds - 1
		}
		o := op{at: int64(t), kind: k, sender: uint8(rng.Intn(senders))}
		if k == kNamespace {
			if len(idle) > 0 && o.at-idle[0].last >= int64(nsSpacing) {
				o.target = idle[0].id
				idle = idle[1:]
			} else {
				o.target = nextVC
				nextVC++
			}
			idle = append(idle, idleClient{id: o.target, last: o.at})
			o.sender = uint8(int(o.target) % senders)
		} else {
			o.target = int32(rng.Intn(targets[k]))
		}
		ops = append(ops, o)
	}
}

// fingerprint is a digest of a schedule: equal schedules, equal digests.
func fingerprint(ops []op) string {
	h := sha256.New()
	var b [16]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint64(b[0:], uint64(o.at))
		b[8], b[9] = byte(o.kind), o.sender
		binary.LittleEndian.PutUint32(b[10:], uint32(o.target))
		h.Write(b[:14])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pattern is the fixed content of data block b of data file f. Preload
// writes it and every WRITE writes it again, so whatever the interleaving
// every READ must return exactly these bytes.
func pattern(f, b int) []byte {
	p := make([]byte, blockBytes)
	x := uint32(f*dataBlocks+b)*2654435761 + 1
	for i := 0; i < len(p); i += 4 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		binary.BigEndian.PutUint32(p[i:], x)
	}
	return p
}

func metaName(i int) string { return fmt.Sprintf("f%03d", i) }
func linkName(i int) string { return fmt.Sprintf("l%02d", i) }
func dirName(i int) string  { return fmt.Sprintf("d%d", i) }
func dataName(i int) string { return fmt.Sprintf("r%02d", i) }

// tempName is virtual client vc's temp file in its gen'th incarnation.
func tempName(vc int32, gen uint32) string { return fmt.Sprintf("t%d.%d", vc, gen) }
