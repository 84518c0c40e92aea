package main

import (
	"bytes"
	"math/rand"
	"strings"

	"rocksteady/internal/ycsb"
)

// Workload inputs are generated once, during set-up, from the run's seed:
// every key and every preloaded value live in two flat arenas, and each
// client gets a pre-drawn ring of operations. The measured loop then only
// slices the arenas and stamps write values into pre-allocated buffers, so
// generator allocations stay out of the per-op allocation figure.

const (
	keySize   = 30  // §4.1
	valueSize = 100 // §4.1

	// writeBit marks a write in an op-ring entry; the low bits hold the
	// item index.
	writeBit = 1 << 31

	// stampMark opens every benchmark-written value. Preloaded values are
	// lower-case letters only, so a stamped value can never be mistaken
	// for a preload.
	stampMark = '#'
	// stampLen is the stamped prefix: mark, client digit, ':', 8 hex
	// digits of the client's write sequence number, ':'.
	stampLen = 12

	// valueRing is how many write-value buffers each client cycles
	// through. A buffer is reused only valueRing writes later, long after
	// the server has copied it into its log.
	valueRing = 4096
)

type inputs struct {
	n      int
	keys   []byte // n × keySize
	values []byte // n × valueSize: the preloaded value of each item
	ops    [][]uint32
}

// opsPerClient sizes each client's operation ring; a run longer than the
// ring replays it from the start.
func opsPerClient(records int) int {
	if records < 1<<16 {
		return 1 << 16
	}
	return 1 << 21
}

func genInputs(w workload, records, clients int, seed int64) *inputs {
	in := &inputs{
		n:      records,
		keys:   make([]byte, records*keySize),
		values: make([]byte, records*valueSize),
	}
	gen := &ycsb.Workload{KeySize: keySize, ValueSize: valueSize}
	for i := 0; i < records; i++ {
		copy(in.keys[i*keySize:], gen.Key(uint64(i)))
		copy(in.values[i*valueSize:], gen.Value(uint64(i)))
	}
	var chooser ycsb.KeyChooser = ycsb.NewUniform(uint64(records))
	if w.theta > 0 {
		chooser = ycsb.NewZipfian(uint64(records), w.theta)
	}
	mix := &ycsb.Workload{ReadFraction: w.readFrac, Chooser: chooser}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		ring := make([]uint32, opsPerClient(records))
		for i := range ring {
			op := mix.NextOp(rng)
			ring[i] = uint32(op.Item)
			if op.Kind == ycsb.OpWrite {
				ring[i] |= writeBit
			}
		}
		in.ops = append(in.ops, ring)
	}
	return in
}

func (in *inputs) key(item uint32) []byte {
	return in.keys[int(item)*keySize : (int(item)+1)*keySize : (int(item)+1)*keySize]
}

func (in *inputs) preload(item uint32) []byte {
	return in.values[int(item)*valueSize : (int(item)+1)*valueSize : (int(item)+1)*valueSize]
}

const hexDigits = "0123456789abcdef"

// stamp writes item's value, tagged with (client, seq), into buf.
func (in *inputs) stamp(buf []byte, item uint32, client int, seq uint32) []byte {
	buf = append(buf[:0], in.preload(item)...)
	buf[0] = stampMark
	buf[1] = byte('0' + client)
	buf[2] = ':'
	for i := 0; i < 8; i++ {
		buf[3+i] = hexDigits[(seq>>(28-4*i))&0xf]
	}
	buf[11] = ':'
	return buf
}

// parseStamp decodes a value's write tag. stamped is false for an
// untouched preload value.
func parseStamp(v []byte) (client int, seq uint32, stamped, ok bool) {
	if len(v) != valueSize {
		return 0, 0, false, false
	}
	if v[0] != stampMark {
		return 0, 0, false, true
	}
	if v[1] < '0' || v[1] > '9' || v[2] != ':' || v[11] != ':' {
		return 0, 0, true, false
	}
	for i := 0; i < 8; i++ {
		d := strings.IndexByte(hexDigits, v[3+i])
		if d < 0 {
			return 0, 0, true, false
		}
		seq = seq<<4 | uint32(d)
	}
	return int(v[1] - '0'), seq, true, true
}

// plausible reports whether v can be a value of item: its body past the
// stamp must match the item's preload, and an unstamped value must be the
// preload exactly.
func (in *inputs) plausible(item uint32, v []byte) bool {
	if len(v) != valueSize {
		return false
	}
	p := in.preload(item)
	if v[0] != stampMark {
		return bytes.Equal(v, p)
	}
	return bytes.Equal(v[stampLen:], p[stampLen:])
}
