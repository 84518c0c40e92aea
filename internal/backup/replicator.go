package backup

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// ErrReplicationFailed reports that a backup rejected or lost an update.
var ErrReplicationFailed = errors.New("backup: replication failed")

// Replicator streams a master's log growth to its backups. Writers call
// Sync after appending; concurrent Syncs share flushes (group commit), so
// under load the replication ceiling — not per-RPC latency — governs
// throughput, as in §2.3.
type Replicator struct {
	node    *transport.Node
	master  wire.ServerID
	backups []wire.ServerID
	factor  int
	// root anchors group-commit flush RPCs: a flush serves every writer
	// waiting on the generation, so no single writer's deadline may
	// cancel it (see Sync).
	root context.Context

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []storage.AppendEvent
	appended  uint64 // generation: events accepted
	synced    uint64 // generation: events durable on all replicas
	flushing  bool
	failed    error
	bytesSent int64
	dead      map[wire.ServerID]bool

	// resolve maps (logID, segmentID) to the live segment so a batch that
	// lost every replica can be re-replicated in full to a fresh backup.
	resolve func(logID, segID uint64) *storage.Segment

	// Group-commit batching counters (see FlushStats). Atomic so flush can
	// update them without re-entering mu.
	flushes     atomic.Int64
	flushEvents atomic.Int64
	flushChunks atomic.Int64
	flushRPCs   atomic.Int64
	flushNanos  atomic.Int64
}

// FlushStats reports group-commit batching behaviour: how many flushes
// ran, how many append events and coalesced chunks they carried, how many
// RPCs they issued (one per backup per flush in the common case), and the
// cumulative flush latency.
type FlushStats struct {
	Flushes int64
	Events  int64
	Chunks  int64
	RPCs    int64
	Nanos   int64
}

// FlushStats returns a snapshot of the group-commit counters.
func (r *Replicator) FlushStats() FlushStats {
	return FlushStats{
		Flushes: r.flushes.Load(),
		Events:  r.flushEvents.Load(),
		Chunks:  r.flushChunks.Load(),
		RPCs:    r.flushRPCs.Load(),
		Nanos:   r.flushNanos.Load(),
	}
}

// NewReplicator creates a replicator writing to the given backups with the
// given replication factor (clamped to the backup count). A nil node or
// empty backup list disables replication: Sync succeeds immediately.
func NewReplicator(node *transport.Node, master wire.ServerID, backups []wire.ServerID, factor int) *Replicator {
	if factor > len(backups) {
		factor = len(backups)
	}
	if factor < 0 {
		factor = 0
	}
	r := &Replicator{node: node, master: master, backups: backups, factor: factor,
		dead: make(map[wire.ServerID]bool)}
	//lint:ignore ctxcheck server root: group-commit flushes outlive any one writer's request
	r.root = context.Background()
	r.cond = sync.NewCond(&r.mu)
	return r
}

// SetSegmentResolver installs the lookup used to re-replicate a whole
// segment after a backup failure.
func (r *Replicator) SetSegmentResolver(f func(logID, segID uint64) *storage.Segment) {
	r.resolve = f
}

// Enabled reports whether replication is active.
func (r *Replicator) Enabled() bool { return r.node != nil && r.factor > 0 }

// BytesSent returns total bytes shipped to backups (per-replica counted).
func (r *Replicator) BytesSent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesSent
}

// OnAppend accepts a log append event; wire it to storage.NewLog. It never
// blocks the log append path.
func (r *Replicator) OnAppend(ev storage.AppendEvent) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	r.pending = append(r.pending, ev)
	r.appended++
	r.mu.Unlock()
}

// Sync blocks until every event accepted before the call is durable on
// the replication factor's worth of backups. A done ctx aborts before
// any waiting starts; once a flush is joined it runs to completion under
// the replicator's root context, because one flush commits many writers'
// events — a single caller's deadline must not fail its neighbours.
func (r *Replicator) Sync(ctx context.Context) error {
	if !r.Enabled() {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.appended
	for r.synced < target {
		if r.failed != nil {
			return r.failed
		}
		if !r.flushing {
			r.flushing = true
			batch := r.pending
			gen := r.appended
			r.pending = nil
			r.mu.Unlock()
			err := r.flush(batch)
			r.mu.Lock()
			r.flushing = false
			if err != nil {
				r.failed = err
			} else {
				r.synced = gen
			}
			r.cond.Broadcast()
			continue
		}
		r.cond.Wait()
	}
	return r.failed
}

// backupsFor places a segment's replicas: factor consecutive live backups
// starting at a position derived from the segment ID. Backups that failed
// a replication RPC are skipped permanently (the coordinator recovers
// their replicas elsewhere; re-enlisting is out of scope).
func (r *Replicator) backupsFor(segID uint64) []wire.ServerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]wire.ServerID, 0, r.factor)
	for i := 0; i < len(r.backups) && len(out) < r.factor; i++ {
		b := r.backups[(int(segID)+i)%len(r.backups)]
		if !r.dead[b] {
			out = append(out, b)
		}
	}
	return out
}

// markDead excludes a backup from future placement.
func (r *Replicator) markDead(b wire.ServerID) {
	r.mu.Lock()
	r.dead[b] = true
	r.mu.Unlock()
}

// replicateWholeSegment sends a segment's full contents to one live backup
// (failover after a replica loss: a delta append would leave a gap, so the
// replacement gets the whole prefix). A backup that fails it is marked dead
// and the next live one tried.
func (r *Replicator) replicateWholeSegment(ctx context.Context, seg *storage.Segment) error {
	if seg == nil {
		return fmt.Errorf("%w: segment vanished during failover", ErrReplicationFailed)
	}
	whole := []segChunk{{
		logID: seg.LogID, segID: seg.ID, data: seg.Data(0, seg.Len()), seal: seg.Sealed(),
	}}
	for attempt := 0; attempt < len(r.backups); attempt++ {
		targets := r.backupsFor(seg.ID)
		if len(targets) == 0 {
			break
		}
		b := &backupBatch{backup: targets[0], idxs: []int{0}}
		r.send(ctx, b, whole)
		if r.await(ctx, b)[0] {
			return nil
		}
		r.markDead(targets[0])
	}
	return fmt.Errorf("%w: no live backup for segment %d", ErrReplicationFailed, seg.ID)
}

// segChunk is one coalesced contiguous span of one segment's bytes.
type segChunk struct {
	logID, segID uint64
	offset       int
	data         []byte
	seal         bool
	// seg, when set, is the segment a failed chunk re-replicates whole;
	// otherwise the segment resolver finds it.
	seg *storage.Segment
}

// coalesceChunks folds a run of append events into contiguous per-segment
// chunks. Events for one segment arrive in append order (emitted under the
// shard lock), so adjacent same-segment events always glue together; with
// sharded heads the run interleaves chunks of several segments.
func coalesceChunks(batch []storage.AppendEvent) []segChunk {
	var out []segChunk
	for _, ev := range batch {
		n := len(out)
		if n > 0 && out[n-1].segID == ev.SegmentID && out[n-1].logID == ev.LogID &&
			!out[n-1].seal && out[n-1].offset+len(out[n-1].data) == ev.Offset {
			out[n-1].data = append(out[n-1].data, ev.Data...)
			out[n-1].seal = ev.Sealed
			continue
		}
		data := make([]byte, len(ev.Data))
		copy(data, ev.Data)
		out = append(out, segChunk{
			logID: ev.LogID, segID: ev.SegmentID, offset: ev.Offset,
			data: data, seal: ev.Sealed,
		})
	}
	return out
}

// maxBatchBytes bounds the chunk data of one ReplicateBatch RPC, keeping
// whole-segment batches far below the TCP frame limit. A chunk larger than
// the bound travels alone.
const maxBatchBytes = 4 << 20

// backupBatch is one ReplicateBatch RPC: the chunks, by index, bound for
// one backup, in chunk order.
type backupBatch struct {
	backup wire.ServerID
	idxs   []int
	bytes  int
	call   *transport.Call
	req    *wire.ReplicateBatchRequest
}

// send starts b's RPC carrying its chunks.
func (r *Replicator) send(ctx context.Context, b *backupBatch, chunks []segChunk) {
	b.req = &wire.ReplicateBatchRequest{
		Master: r.master,
		Chunks: make([]wire.ReplicateChunk, 0, len(b.idxs)),
	}
	for _, ci := range b.idxs {
		c := &chunks[ci]
		b.req.Chunks = append(b.req.Chunks, wire.ReplicateChunk{
			LogID: c.logID, SegmentID: c.segID, Offset: uint32(c.offset),
			Data: c.data, Close: c.seal,
		})
	}
	b.call = r.node.Go(ctx, b.backup, wire.PriorityReplication, b.req)
}

// await waits for b's ack and reports, per chunk of the batch, whether
// the backup stored it durably. A failed RPC gets one synchronous retry
// (the batch is idempotent: the store rewrites prefixes), so a transient
// fault — an injected drop, a momentary queue overflow — does not
// permanently shrink the backup set; a backup that fails twice is marked
// dead. Durability degrades rather than halting the master, the
// availability call RAMCloud makes, with recovery and whole-segment
// re-replication responsible for restoring redundancy.
func (r *Replicator) await(ctx context.Context, b *backupBatch) []bool {
	acks := make([]bool, len(b.idxs))
	reply, err := b.call.Wait()
	if err != nil {
		reply, err = r.node.Call(ctx, b.backup, wire.PriorityReplication, b.req)
	}
	resp, ok := reply.(*wire.ReplicateBatchResponse)
	if err != nil || !ok {
		r.markDead(b.backup)
		return acks
	}
	for j := range acks {
		acks[j] = j < len(resp.ChunkStatuses) && resp.ChunkStatuses[j] == wire.StatusOK
	}
	return acks
}

// replicate ships chunks to each one's placement backups, grouped into
// ReplicateBatch RPCs per backup (chunk order preserved within a backup,
// since replicas of one segment must apply in order), then re-replicates
// whole every segment whose chunk no replica acknowledged. It counts the
// chunk bytes sent, per replica, in BytesSent and returns the RPCs issued.
func (r *Replicator) replicate(ctx context.Context, chunks []segChunk) (int, error) {
	var batches []*backupBatch
	open := make(map[wire.ServerID]*backupBatch)
	for ci := range chunks {
		n := len(chunks[ci].data)
		for _, b := range r.backupsFor(chunks[ci].segID) {
			cur := open[b]
			if cur == nil || cur.bytes+n > maxBatchBytes {
				cur = &backupBatch{backup: b}
				open[b] = cur
				batches = append(batches, cur)
			}
			cur.idxs = append(cur.idxs, ci)
			cur.bytes += n
		}
	}
	var sent int64
	for _, b := range batches {
		r.send(ctx, b, chunks)
		sent += int64(b.bytes)
	}
	r.mu.Lock()
	r.bytesSent += sent
	r.mu.Unlock()
	okPerChunk := make([]int, len(chunks))
	for _, b := range batches {
		for j, ok := range r.await(ctx, b) {
			if ok {
				okPerChunk[b.idxs[j]]++
			}
		}
	}
	for ci, n := range okPerChunk {
		if n > 0 {
			continue
		}
		seg := chunks[ci].seg
		if seg == nil && r.resolve != nil {
			seg = r.resolve(chunks[ci].logID, chunks[ci].segID)
		}
		if err := r.replicateWholeSegment(ctx, seg); err != nil {
			return len(batches), err
		}
	}
	return len(batches), nil
}

// flush ships a batch of events as group commit: all pending chunks bound
// for one backup travel in one ReplicateBatch RPC, so each flush costs one
// RPC per backup regardless of how many shards appended. The whole payload
// is assembled here, outside the replicator's mutex — Sync snapshots
// pending and releases mu before calling flush.
func (r *Replicator) flush(batch []storage.AppendEvent) error {
	start := time.Now()
	coalesced := coalesceChunks(batch)
	rpcs, err := r.replicate(r.root, coalesced)
	if err != nil {
		return err
	}
	r.flushes.Add(1)
	r.flushEvents.Add(int64(len(batch)))
	r.flushChunks.Add(int64(len(coalesced)))
	r.flushRPCs.Add(int64(rpcs))
	r.flushNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// ReplicateSegments ships whole segments (sealed side logs at migration
// end — the *lazy* re-replication of §3.4) through the same batched path
// as group commit, outside FlushStats. Events bypass the pending queue:
// the caller owns ordering, so unlike Sync the caller's ctx governs every
// RPC.
func (r *Replicator) ReplicateSegments(ctx context.Context, segs []*storage.Segment) error {
	if !r.Enabled() {
		return nil
	}
	chunks := make([]segChunk, len(segs))
	for i, seg := range segs {
		chunks[i] = segChunk{
			logID: seg.LogID, segID: seg.ID, data: seg.Data(0, seg.Len()), seal: true, seg: seg,
		}
		seg.SetReplicatedTo(seg.Len())
	}
	_, err := r.replicate(ctx, chunks)
	return err
}
