package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/wire"
)

// A run is divided into slots. Slot 0 is the warm-up, which is neither
// timed nor counted; slots 1..rounds are the steady phase's rounds and the
// slots after them the migration phase's migrations. An op is recorded in the
// slot that was current when it started. slotStop ends the run.
const slotStop = -1

// failedLatency is recorded for an op that failed: a failed op misses
// every latency limit, so it sorts above every real sample.
const failedLatency = math.MaxUint32

var errWrongValue = errors.New("read returned a value that is not the item's")

// slotRec is one client's record of one slot.
type slotRec struct {
	reads, writes []uint32 // latencies in ns, failedLatency for failures
	failed        int64
}

// lastWrite is a client's last acknowledged write of one item. Times are
// microseconds since the run's time base; ack == 0 means none.
type lastWrite struct{ seq, issue, ack uint32 }

type failedWrite struct{ item, seq, issue, end uint32 }

// driver is one closed-loop client: it sends its next op only after the
// previous one returned.
type driver struct {
	id    int
	cl    *client.Client
	table wire.TableID
	in    *inputs
	slot  *atomic.Int32
	gate  *gate
	base  time.Time

	rec         []slotRec
	kinds       map[string]int64 // failures by error text
	wrongValues int64
	last        []lastWrite // indexed by item
	failedW     []failedWrite
	seq         uint32
	bufs        [][]byte
}

// newDriver pre-sizes each steady round's latency slices for slotOps ops,
// and each migration's for a quarter of that, so the measured loop seldom
// grows them; a slot that outruns them appends as usual.
func newDriver(id int, cl *client.Client, table wire.TableID, in *inputs, slot *atomic.Int32, g *gate, base time.Time, rounds, slots, slotOps int) *driver {
	d := &driver{id: id, cl: cl, table: table, in: in, slot: slot, gate: g, base: base,
		rec:   make([]slotRec, slots),
		kinds: make(map[string]int64),
		last:  make([]lastWrite, in.n)}
	for s := 1; s < slots; s++ {
		n := slotOps
		if s > rounds {
			n /= 4
		}
		d.rec[s] = slotRec{reads: make([]uint32, 0, n), writes: make([]uint32, 0, n/2)}
	}
	for i := 0; i < valueRing; i++ {
		d.bufs = append(d.bufs, make([]byte, 0, valueSize))
	}
	return d
}

func (d *driver) sinceBase(t time.Time) uint32 { return uint32(t.Sub(d.base) / time.Microsecond) }

func (d *driver) run(ctx context.Context) {
	ring := d.in.ops[d.id]
	for i := 0; ; i++ {
		if d.gate.held.Load() {
			d.gate.park()
		}
		slot := d.slot.Load()
		if slot == slotStop {
			return
		}
		op := ring[i%len(ring)]
		item := op &^ writeBit
		key := d.in.key(item)
		var err error
		var seq uint32
		start := time.Now()
		if op&writeBit == 0 {
			var v []byte
			v, err = d.cl.Read(ctx, d.table, key)
			if err == nil && !d.in.plausible(item, v) {
				err = errWrongValue
				d.wrongValues++
			}
		} else {
			d.seq++
			seq = d.seq
			err = d.cl.Write(ctx, d.table, key, d.in.stamp(d.bufs[seq%valueRing], item, d.id, seq))
		}
		end := time.Now()
		if op&writeBit != 0 {
			if err == nil {
				d.last[item] = lastWrite{seq: seq, issue: d.sinceBase(start), ack: d.sinceBase(end)}
			} else {
				d.failedW = append(d.failedW, failedWrite{item: item, seq: seq, issue: d.sinceBase(start), end: d.sinceBase(end)})
			}
		}
		if slot == 0 {
			continue
		}
		r := &d.rec[slot]
		lat := uint32(failedLatency)
		if err == nil {
			if ns := end.Sub(start); ns < failedLatency {
				lat = uint32(ns)
			}
		} else {
			r.failed++
			d.kinds[err.Error()]++
		}
		if op&writeBit == 0 {
			r.reads = append(r.reads, lat)
		} else {
			r.writes = append(r.writes, lat)
		}
	}
}

// gate stops the drivers between two ops while the range changes owner.
// Between the source's PrepareMigration and the coordinator's map flip the
// source answers StatusWrongServer and the coordinator still names the
// source, so an op issued then spends the client's redirect budget
// (internal/client maxAttempts) in about 12 ms and fails, while the
// MigrateTablet call takes 18-66 ms at 400 k records. The drivers therefore hold for the
// length of that call; the held time stays in the migration phase's
// windows, so it lowers mig_ops_per_s.
type gate struct {
	held   atomic.Bool
	mu     sync.Mutex
	cond   sync.Cond
	parked int
}

func newGate() *gate {
	g := &gate{}
	g.cond.L = &g.mu
	return g
}

// park blocks a driver until the gate opens.
func (g *gate) park() {
	g.mu.Lock()
	g.parked++
	g.cond.Broadcast()
	for g.held.Load() {
		g.cond.Wait()
	}
	g.parked--
	g.mu.Unlock()
}

// hold closes the gate and returns once n drivers are parked, so no op is
// in flight.
func (g *gate) hold(n int) {
	g.mu.Lock()
	g.held.Store(true)
	for g.parked < n {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// release opens the gate.
func (g *gate) release() {
	g.mu.Lock()
	g.held.Store(false)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// readback reads every item any driver wrote, or tried to write, from its
// final owner and checks it against the writes that were acknowledged.
type readback struct {
	keys       int64
	errors     int64
	mismatches int64
	kinds      map[string]int64
}

func checkWrites(ctx context.Context, cl *client.Client, table wire.TableID, in *inputs, drivers []*driver) readback {
	rb := readback{kinds: make(map[string]int64)}
	failed := make(map[uint64][]failedWrite)
	for _, d := range drivers {
		for _, f := range d.failedW {
			k := uint64(d.id)<<32 | uint64(f.item)
			failed[k] = append(failed[k], f)
		}
	}
	for item := 0; item < in.n; item++ {
		touched := false
		for _, d := range drivers {
			if d.last[item].ack != 0 || len(failed[uint64(d.id)<<32|uint64(item)]) > 0 {
				touched = true
			}
		}
		if !touched {
			continue
		}
		rb.keys++
		v, err := cl.Read(ctx, table, in.key(uint32(item)))
		if err != nil {
			rb.errors++
			rb.kinds["read-back: "+err.Error()]++
			continue
		}
		if !validFinal(in, drivers, failed, uint32(item), v) {
			rb.mismatches++
			rb.kinds["read-back: stale or lost write"]++
		}
	}
	return rb
}

// validFinal decides whether v may be item's value after all writes
// finished. An unstamped value is valid only if no write of the item was
// acknowledged. A stamped value must be its writer's last acknowledged
// write of the item, or a failed write issued after it (a failed write may
// or may not have been applied), and no other client's acknowledged write
// may have been issued after that write returned.
func validFinal(in *inputs, drivers []*driver, failed map[uint64][]failedWrite, item uint32, v []byte) bool {
	c, seq, stamped, ok := parseStamp(v)
	if !ok || !in.plausible(item, v) {
		return false
	}
	if !stamped {
		for _, d := range drivers {
			if d.last[item].ack != 0 {
				return false
			}
		}
		return true
	}
	if c >= len(drivers) {
		return false
	}
	l := drivers[c].last[item]
	var end uint32
	switch {
	case l.ack != 0 && l.seq == seq:
		end = l.ack
	default:
		for _, f := range failed[uint64(c)<<32|uint64(item)] {
			if f.seq == seq && (l.ack == 0 || f.issue >= l.ack) {
				end = f.end
			}
		}
	}
	if end == 0 {
		return false
	}
	for k, d := range drivers {
		if k != c && d.last[item].ack != 0 && d.last[item].issue > end {
			return false
		}
	}
	return true
}

// startDrivers launches one goroutine per driver; the returned wait
// blocks until every one has seen slotStop.
func startDrivers(ctx context.Context, drivers []*driver) (wait func()) {
	var wg sync.WaitGroup
	for _, d := range drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.run(ctx)
		}(d)
	}
	return wg.Wait
}
