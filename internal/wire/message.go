package wire

// Payload is the interface implemented by every request and response body.
// codec lists the body's fields once, in wire order; a Coder runs the list
// to size, encode or decode the body (see marshal.go). A new message adds
// its struct, Op and codec here and its constructors to the ops table.
type Payload interface {
	Op() Op
	codec(c Coder) Coder
}

// statusOnly is the codec of a response that carries only a status.
func statusOnly(c Coder, s *Status) Coder {
	c.Status(s)
	return c
}

// Message is the RPC envelope carried by transports.
type Message struct {
	// ID matches a response to its request; unique per sender.
	ID uint64
	// From and To address cluster members.
	From, To ServerID
	// Op names the operation; set on both request and response.
	Op Op
	// IsResponse distinguishes the two directions.
	IsResponse bool
	// Priority tells the receiving dispatch loop how to schedule the
	// request. Ignored on responses (responses complete pending futures).
	Priority Priority
	// TraceID correlates every hop of one logical request chain: a client
	// call, the server's dispatch span, and any downstream RPCs it makes
	// all carry the same id. Zero means untraced. Responses echo the
	// request's id.
	TraceID uint64
	// DeadlineNanos is the request's absolute deadline in Unix nanoseconds;
	// zero means no deadline. Receivers shed the request instead of running
	// it once the deadline passes, and downstream hops inherit it.
	// Ignored on responses.
	DeadlineNanos int64
	// Body holds the typed payload.
	Body Payload
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

// ReadRequest fetches one object by primary key.
type ReadRequest struct {
	Table TableID
	Key   []byte
}

func (r *ReadRequest) Op() Op { return OpRead }
func (r *ReadRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Blob(&r.Key)
	return c
}

// ReadResponse returns the object, or a status explaining its absence.
type ReadResponse struct {
	Status  Status
	Version uint64
	Value   []byte
	// RetryAfterMicros accompanies StatusRetry: the target's estimate of
	// when the record will have arrived via PriorityPull.
	RetryAfterMicros uint32
}

func (r *ReadResponse) Op() Op { return OpRead }
func (r *ReadResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.Version)
	c.U32(&r.RetryAfterMicros)
	c.Blob(&r.Value)
	return c
}

// WriteRequest stores one object.
type WriteRequest struct {
	Table TableID
	Key   []byte
	Value []byte
}

func (r *WriteRequest) Op() Op { return OpWrite }
func (r *WriteRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Blob(&r.Key)
	c.Blob(&r.Value)
	return c
}

// WriteResponse acknowledges a durable write.
type WriteResponse struct {
	Status  Status
	Version uint64
}

func (r *WriteResponse) Op() Op { return OpWrite }
func (r *WriteResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.Version)
	return c
}

// DeleteRequest removes one object.
type DeleteRequest struct {
	Table TableID
	Key   []byte
}

func (r *DeleteRequest) Op() Op { return OpDelete }
func (r *DeleteRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Blob(&r.Key)
	return c
}

// DeleteResponse acknowledges a durable delete.
type DeleteResponse struct {
	Status  Status
	Version uint64
}

func (r *DeleteResponse) Op() Op { return OpDelete }
func (r *DeleteResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.Version)
	return c
}

// MultiGetRequest fetches several objects of one table from one server
// with a single RPC (the locality optimization Figure 3 measures).
type MultiGetRequest struct {
	Table TableID
	Keys  [][]byte
}

func (r *MultiGetRequest) Op() Op { return OpMultiGet }
func (r *MultiGetRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Blobs(&r.Keys)
	return c
}

// MultiGetResponse returns per-key results aligned with the request keys.
type MultiGetResponse struct {
	Status   Status
	Statuses []Status
	Versions []uint64
	Values   [][]byte
	// RetryAfterMicros accompanies StatusRetry entries during migration.
	RetryAfterMicros uint32
}

func (r *MultiGetResponse) Op() Op { return OpMultiGet }
func (r *MultiGetResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U32(&r.RetryAfterMicros)
	c.Statuses(&r.Statuses)
	c.U64s(&r.Versions)
	c.Blobs(&r.Values)
	return c
}

// MultiPutRequest writes several objects of one table on one server.
type MultiPutRequest struct {
	Table  TableID
	Keys   [][]byte
	Values [][]byte
}

func (r *MultiPutRequest) Op() Op { return OpMultiPut }
func (r *MultiPutRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Blobs(&r.Keys)
	c.Blobs(&r.Values)
	return c
}

// MultiPutResponse returns per-key statuses aligned with the request keys.
type MultiPutResponse struct {
	Status   Status
	Statuses []Status
	Versions []uint64
}

func (r *MultiPutResponse) Op() Op { return OpMultiPut }
func (r *MultiPutResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Statuses(&r.Statuses)
	c.U64s(&r.Versions)
	return c
}

// MultiGetByHashRequest fetches objects by primary key hash; used by index
// scans, which learn hashes (not keys) from indexlets (Figure 2).
type MultiGetByHashRequest struct {
	Table  TableID
	Hashes []uint64
}

func (r *MultiGetByHashRequest) Op() Op { return OpMultiGetByHash }
func (r *MultiGetByHashRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.U64s(&r.Hashes)
	return c
}

// MultiGetByHashResponse returns the records found for the hashes. Records
// whose hash is absent are omitted.
type MultiGetByHashResponse struct {
	Status           Status
	Records          []Record
	RetryAfterMicros uint32
}

func (r *MultiGetByHashResponse) Op() Op { return OpMultiGetByHash }
func (r *MultiGetByHashResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U32(&r.RetryAfterMicros)
	c.Records(&r.Records)
	return c
}

// ---------------------------------------------------------------------------
// Index path
// ---------------------------------------------------------------------------

// IndexLookupRequest asks an indexlet for the primary-key hashes of records
// whose secondary key falls in [Begin, End), at most Limit of them.
type IndexLookupRequest struct {
	Index IndexID
	Begin []byte
	End   []byte
	Limit uint32
}

func (r *IndexLookupRequest) Op() Op { return OpIndexLookup }
func (r *IndexLookupRequest) codec(c Coder) Coder {
	c.Index(&r.Index)
	c.U32(&r.Limit)
	c.Blob(&r.Begin)
	c.Blob(&r.End)
	return c
}

// IndexLookupResponse returns matching primary-key hashes in secondary-key
// order.
type IndexLookupResponse struct {
	Status Status
	Hashes []uint64
}

func (r *IndexLookupResponse) Op() Op { return OpIndexLookup }
func (r *IndexLookupResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64s(&r.Hashes)
	return c
}

// IndexInsertRequest adds (SecondaryKey -> KeyHash) to an indexlet; issued
// by masters applying writes to indexed tables.
type IndexInsertRequest struct {
	Index        IndexID
	SecondaryKey []byte
	KeyHash      uint64
}

func (r *IndexInsertRequest) Op() Op { return OpIndexInsert }
func (r *IndexInsertRequest) codec(c Coder) Coder {
	c.Index(&r.Index)
	c.U64(&r.KeyHash)
	c.Blob(&r.SecondaryKey)
	return c
}

// IndexInsertResponse acknowledges the insert.
type IndexInsertResponse struct{ Status Status }

func (r *IndexInsertResponse) Op() Op              { return OpIndexInsert }
func (r *IndexInsertResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// IndexRemoveRequest removes (SecondaryKey -> KeyHash) from an indexlet.
type IndexRemoveRequest struct {
	Index        IndexID
	SecondaryKey []byte
	KeyHash      uint64
}

func (r *IndexRemoveRequest) Op() Op { return OpIndexRemove }
func (r *IndexRemoveRequest) codec(c Coder) Coder {
	c.Index(&r.Index)
	c.U64(&r.KeyHash)
	c.Blob(&r.SecondaryKey)
	return c
}

// IndexRemoveResponse acknowledges the removal.
type IndexRemoveResponse struct{ Status Status }

func (r *IndexRemoveResponse) Op() Op              { return OpIndexRemove }
func (r *IndexRemoveResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// ---------------------------------------------------------------------------
// Migration path
// ---------------------------------------------------------------------------

// MigrateTabletRequest starts a live migration. It is sent by a client to
// the *target*, which drives the entire migration (§3).
type MigrateTabletRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
}

func (r *MigrateTabletRequest) Op() Op { return OpMigrateTablet }
func (r *MigrateTabletRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.Server(&r.Source)
	return c
}

// MigrateTabletResponse acknowledges that migration started (not that it
// finished): ownership has already moved to the target.
type MigrateTabletResponse struct{ Status Status }

func (r *MigrateTabletResponse) Op() Op              { return OpMigrateTablet }
func (r *MigrateTabletResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// PrepareMigrationRequest is sent target -> source before ownership moves.
// The source marks the tablet immutable-and-migrating and returns what the
// target needs to partition the source's hash space.
type PrepareMigrationRequest struct {
	Table TableID
	Range HashRange
	// Target tells the source where its records are going so it can
	// redirect (it otherwise keeps no migration state).
	Target ServerID
	// KeepServing leaves the source serving client operations for the
	// range (the source-retains-ownership baseline of §4.2); the normal
	// protocol marks the range immutable-and-migrating instead.
	KeepServing bool
}

func (r *PrepareMigrationRequest) Op() Op { return OpPrepareMigration }
func (r *PrepareMigrationRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.Server(&r.Target)
	c.Bool(&r.KeepServing)
	return c
}

// PrepareMigrationResponse carries the source-side facts a migration
// manager needs.
type PrepareMigrationResponse struct {
	Status Status
	// VersionCeiling is one above the highest object version the source
	// ever assigned in the tablet; the target issues new versions above it
	// so replay can always resolve newest-wins without coordination.
	VersionCeiling uint64
	// NumBuckets is the source hash table's bucket count; Pull resume
	// tokens index into it.
	NumBuckets uint64
	// TailWatermark is the source's append-epoch watermark at preparation
	// time: every write the source accepts afterwards carries a larger
	// epoch. The retain-ownership catch-up pulls only entries above it.
	TailWatermark uint64
}

func (r *PrepareMigrationResponse) Op() Op { return OpPrepareMigration }
func (r *PrepareMigrationResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.VersionCeiling)
	c.U64(&r.NumBuckets)
	c.U64(&r.TailWatermark)
	return c
}

// AbortMigrationRequest is sent target -> source when the migration
// prologue fails after PrepareMigration may have landed: ownership never
// moved, so the source must flip the range back to normal service.
// Idempotent — aborting a range that was never prepared is a no-op, so the
// target can send it whenever the prologue outcome is in doubt.
type AbortMigrationRequest struct {
	Table TableID
	Range HashRange
	// Target identifies the aborting migration for diagnostics; the source
	// keeps no per-migration state, so it is not validated.
	Target ServerID
}

func (r *AbortMigrationRequest) Op() Op { return OpAbortMigration }
func (r *AbortMigrationRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.Server(&r.Target)
	return c
}

// AbortMigrationResponse acknowledges that the source serves the range
// again (or never stopped).
type AbortMigrationResponse struct{ Status Status }

func (r *AbortMigrationResponse) Op() Op              { return OpAbortMigration }
func (r *AbortMigrationResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// PullRequest fetches the next batch of records from one partition of the
// source's key-hash space. The source is stateless: ResumeToken encodes the
// next hash-table bucket to scan, so concurrent Pulls over disjoint
// partitions proceed without shared state (§3.1.1).
type PullRequest struct {
	Table TableID
	Range HashRange
	// ResumeToken is the bucket index to resume from within Range; zero
	// means the first bucket of the partition.
	ResumeToken uint64
	// ByteBudget bounds the response size (paper default 20 KB) so source
	// workers are never occupied for long.
	ByteBudget uint32
}

func (r *PullRequest) Op() Op { return OpPull }
func (r *PullRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.U64(&r.ResumeToken)
	c.U32(&r.ByteBudget)
	return c
}

// PullResponse returns a batch of records and the token to continue from.
type PullResponse struct {
	Status      Status
	Records     []Record
	ResumeToken uint64
	// Done reports that the partition is exhausted.
	Done bool
}

func (r *PullResponse) Op() Op { return OpPull }
func (r *PullResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.ResumeToken)
	c.Bool(&r.Done)
	c.Records(&r.Records)
	return c
}

// PriorityPullRequest fetches specific records by key hash, on demand, at
// the highest priority (§3.3). Requests are batched and de-duplicated by
// the target's migration manager.
type PriorityPullRequest struct {
	Table  TableID
	Hashes []uint64
}

func (r *PriorityPullRequest) Op() Op { return OpPriorityPull }
func (r *PriorityPullRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.U64s(&r.Hashes)
	return c
}

// PriorityPullResponse returns the requested records. Hashes with no
// record on the source are reported in Missing so the target can answer
// StatusNoSuchKey instead of retrying forever.
type PriorityPullResponse struct {
	Status  Status
	Records []Record
	Missing []uint64
}

func (r *PriorityPullResponse) Op() Op { return OpPriorityPull }
func (r *PriorityPullResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Records(&r.Records)
	c.U64s(&r.Missing)
	return c
}

// DropTabletRequest tells the source migration finished: it may free the
// tablet's records (the log cleaner reclaims the space).
type DropTabletRequest struct {
	Table TableID
	Range HashRange
}

func (r *DropTabletRequest) Op() Op { return OpDropTablet }
func (r *DropTabletRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	return c
}

// DropTabletResponse acknowledges the drop.
type DropTabletResponse struct{ Status Status }

func (r *DropTabletResponse) Op() Op              { return OpDropTablet }
func (r *DropTabletResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// ReplayRecordsRequest pushes a batch of records source -> target: the
// data path of the *pre-existing* RAMCloud migration Figure 5 dissects.
// The flags select which phases the target performs, reproducing the
// figure's Skip-* series.
type ReplayRecordsRequest struct {
	Table   TableID
	Records []Record
	// Replicate re-replicates the replayed records synchronously.
	Replicate bool
	// SkipReplay makes the target drop the batch after receipt (measures
	// source-side work plus transmission only).
	SkipReplay bool
}

func (r *ReplayRecordsRequest) Op() Op { return OpReplayRecords }
func (r *ReplayRecordsRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Bool(&r.Replicate)
	c.Bool(&r.SkipReplay)
	c.Records(&r.Records)
	return c
}

// ReplayRecordsResponse acknowledges a pushed batch.
type ReplayRecordsResponse struct{ Status Status }

func (r *ReplayRecordsResponse) Op() Op              { return OpReplayRecords }
func (r *ReplayRecordsResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// PullTailRequest fetches records of a range appended after the epoch
// watermark AfterEpoch: the delta catch-up used when ownership stays at
// the source during migration (§4.2's "Source Retains Ownership" variant).
// Epoch filtering (not segment-ID filtering) is what keeps the catch-up
// exact when the source's log has sharded heads appending concurrently.
type PullTailRequest struct {
	Table TableID
	Range HashRange
	// AfterEpoch restricts the scan to entries with larger append epochs.
	AfterEpoch uint64
}

func (r *PullTailRequest) Op() Op { return OpPullTail }
func (r *PullTailRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.U64(&r.AfterEpoch)
	return c
}

// PullTailResponse returns the live tail records of the range.
type PullTailResponse struct {
	Status  Status
	Records []Record
}

func (r *PullTailResponse) Op() Op { return OpPullTail }
func (r *PullTailResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Records(&r.Records)
	return c
}

// ---------------------------------------------------------------------------
// Replication path
// ---------------------------------------------------------------------------

// ReplicateChunk is one contiguous span of one segment's bytes inside a
// batched replication request.
type ReplicateChunk struct {
	LogID     uint64 // distinguishes main log and side logs
	SegmentID uint64
	Offset    uint32
	Data      []byte
	// Close seals the segment replica.
	Close bool
}

func (ch *ReplicateChunk) codec(c Coder) Coder {
	c.U64(&ch.LogID)
	c.U64(&ch.SegmentID)
	c.U32(&ch.Offset)
	c.Bool(&ch.Close)
	c.Blob(&ch.Data)
	return c
}

// ReplicateBatchRequest is the group-commit unit: one RPC carrying every
// shard's pending log growth destined for one backup. The backup applies
// chunks in order under a single lock acquisition and acknowledges each
// chunk individually, so a master can fall back to whole-segment
// re-replication for exactly the chunks that failed.
type ReplicateBatchRequest struct {
	Master ServerID
	Chunks []ReplicateChunk
}

func (r *ReplicateBatchRequest) Op() Op { return OpReplicateBatch }
func (r *ReplicateBatchRequest) codec(c Coder) Coder {
	c.Server(&r.Master)
	list(&c, &r.Chunks)
	return c
}

// ReplicateBatchResponse acknowledges a batch: Status is OK only if every
// chunk landed; ChunkStatuses reports each chunk's outcome.
type ReplicateBatchResponse struct {
	Status        Status
	ChunkStatuses []Status
}

func (r *ReplicateBatchResponse) Op() Op { return OpReplicateBatch }
func (r *ReplicateBatchResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Statuses(&r.ChunkStatuses)
	return c
}

// GetBackupSegmentsRequest asks a backup for one page of the segment
// replicas it holds for a crashed master; used by recovery. Responses
// are paged so recovering a large master streams segment by segment
// instead of materializing every replica in one unbounded message.
type GetBackupSegmentsRequest struct {
	Master ServerID
	// MinLogOffset restricts the reply to log data at or after the offset
	// (used to replay only a lineage dependency's log tail).
	MinLogOffset uint64
	// Cursor resumes paging where the previous response's NextCursor left
	// off; zero starts from the beginning.
	Cursor uint64
	// MaxBytes caps the segment data in one response (0 = the backup's
	// default page size). At least one segment is always returned.
	MaxBytes uint32
}

func (r *GetBackupSegmentsRequest) Op() Op { return OpGetBackupSegments }
func (r *GetBackupSegmentsRequest) codec(c Coder) Coder {
	c.Server(&r.Master)
	c.U64(&r.MinLogOffset)
	c.U64(&r.Cursor)
	c.U32(&r.MaxBytes)
	return c
}

// BackupSegment is one replicated segment returned for recovery.
type BackupSegment struct {
	LogID     uint64
	SegmentID uint64
	// Sealed reports the replica was closed by its master; an unsealed
	// replica (or one whose file lost its tail in a backup crash) is a
	// torn log tail, valid only up to its last parseable entry.
	Sealed bool
	Data   []byte
}

func (s *BackupSegment) codec(c Coder) Coder {
	c.U64(&s.LogID)
	c.U64(&s.SegmentID)
	c.Bool(&s.Sealed)
	c.Blob(&s.Data)
	return c
}

// GetBackupSegmentsResponse returns one page of replicas.
type GetBackupSegmentsResponse struct {
	Status   Status
	Segments []BackupSegment
	// NextCursor is where the next page starts; meaningful when More.
	NextCursor uint64
	// More reports that further pages remain.
	More bool
}

func (r *GetBackupSegmentsResponse) Op() Op { return OpGetBackupSegments }
func (r *GetBackupSegmentsResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.NextCursor)
	c.Bool(&r.More)
	list(&c, &r.Segments)
	return c
}

// TakeTabletsRequest instructs a recovery master to assume ownership of
// tablets recovered from a crashed server and to replay the supplied
// records into its log.
type TakeTabletsRequest struct {
	Table   TableID
	Range   HashRange
	Records []Record
	// VersionCeiling carries the crashed master's version high-water mark.
	VersionCeiling uint64
}

func (r *TakeTabletsRequest) Op() Op { return OpTakeTablets }
func (r *TakeTabletsRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.U64(&r.VersionCeiling)
	c.Records(&r.Records)
	return c
}

// TakeTabletsResponse acknowledges recovery replay.
type TakeTabletsResponse struct{ Status Status }

func (r *TakeTabletsResponse) Op() Op              { return OpTakeTablets }
func (r *TakeTabletsResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// ---------------------------------------------------------------------------
// Coordinator control path
// ---------------------------------------------------------------------------

// Tablet is one entry of the coordinator's tablet map.
type Tablet struct {
	Table  TableID
	Range  HashRange
	Master ServerID
}

func (t *Tablet) codec(c Coder) Coder {
	c.Table(&t.Table)
	c.Range(&t.Range)
	c.Server(&t.Master)
	return c
}

// Indexlet is one range-partition of a secondary index.
type Indexlet struct {
	Index IndexID
	Table TableID
	// Begin (inclusive) and End (exclusive) bound the secondary keys this
	// indexlet covers; an empty End means +infinity.
	Begin  []byte
	End    []byte
	Master ServerID
}

func (ix *Indexlet) codec(c Coder) Coder {
	c.Index(&ix.Index)
	c.Table(&ix.Table)
	c.Server(&ix.Master)
	c.Blob(&ix.Begin)
	c.Blob(&ix.End)
	return c
}

// GetTabletMapRequest fetches the current tablet and indexlet maps.
type GetTabletMapRequest struct{}

func (r *GetTabletMapRequest) Op() Op              { return OpGetTabletMap }
func (r *GetTabletMapRequest) codec(c Coder) Coder { return c }

// GetTabletMapResponse returns the maps and their version.
type GetTabletMapResponse struct {
	Status    Status
	Version   uint64
	Tablets   []Tablet
	Indexlets []Indexlet
}

func (r *GetTabletMapResponse) Op() Op { return OpGetTabletMap }
func (r *GetTabletMapResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.Version)
	list(&c, &r.Tablets)
	list(&c, &r.Indexlets)
	return c
}

// CreateTableRequest creates a table spread over the given servers (one
// tablet per server, hash space split evenly).
type CreateTableRequest struct {
	Name    string
	Servers []ServerID
}

func (r *CreateTableRequest) Op() Op { return OpCreateTable }
func (r *CreateTableRequest) codec(c Coder) Coder {
	c.String(&r.Name)
	c.ServerIDs(&r.Servers)
	return c
}

// CreateTableResponse returns the new table's ID.
type CreateTableResponse struct {
	Status Status
	Table  TableID
}

func (r *CreateTableResponse) Op() Op { return OpCreateTable }
func (r *CreateTableResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Table(&r.Table)
	return c
}

// CreateIndexRequest creates a secondary index over a table, range
// partitioned into one indexlet per entry of Splits+1 servers.
type CreateIndexRequest struct {
	Table   TableID
	Servers []ServerID
	// SplitKeys are the secondary-key boundaries between indexlets; must
	// have len(Servers)-1 entries.
	SplitKeys [][]byte
}

func (r *CreateIndexRequest) Op() Op { return OpCreateIndex }
func (r *CreateIndexRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.ServerIDs(&r.Servers)
	c.Blobs(&r.SplitKeys)
	return c
}

// CreateIndexResponse returns the new index's ID.
type CreateIndexResponse struct {
	Status Status
	Index  IndexID
}

func (r *CreateIndexResponse) Op() Op { return OpCreateIndex }
func (r *CreateIndexResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Index(&r.Index)
	return c
}

// MigrateStartRequest is sent target -> coordinator at migration start: it
// atomically transfers tablet ownership to the target and registers the
// lineage dependency of the source on the target's recovery-log tail
// (§3.4).
type MigrateStartRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
	Target ServerID
	// TargetLogWatermark is the target's log append-epoch at ownership
	// transfer: the lineage dependency covers only entries above it. The
	// watermark is what keeps a re-migration to a former owner safe — the
	// target's log may still hold records from its earlier ownership of
	// the range, and a lineage replay must not resurrect them.
	TargetLogWatermark uint64
}

func (r *MigrateStartRequest) Op() Op { return OpMigrateStart }
func (r *MigrateStartRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.Server(&r.Source)
	c.Server(&r.Target)
	c.U64(&r.TargetLogWatermark)
	return c
}

// MigrateStartResponse acknowledges the ownership transfer.
type MigrateStartResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *MigrateStartResponse) Op() Op { return OpMigrateStart }
func (r *MigrateStartResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.MapVersion)
	return c
}

// MigrateDoneRequest drops the lineage dependency once side logs are
// replicated and committed.
type MigrateDoneRequest struct {
	Table  TableID
	Range  HashRange
	Source ServerID
	Target ServerID
}

func (r *MigrateDoneRequest) Op() Op { return OpMigrateDone }
func (r *MigrateDoneRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.Range(&r.Range)
	c.Server(&r.Source)
	c.Server(&r.Target)
	return c
}

// MigrateDoneResponse acknowledges dependency removal.
type MigrateDoneResponse struct{ Status Status }

func (r *MigrateDoneResponse) Op() Op              { return OpMigrateDone }
func (r *MigrateDoneResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// SplitTabletRequest splits the tablet containing SplitAt into two tablets
// at the boundary; both halves stay on the current master. Splitting is
// the cheap, in-place precursor to migration (§3: "first splitting a
// tablet, then issuing a MigrateTablet").
type SplitTabletRequest struct {
	Table   TableID
	SplitAt uint64 // first hash of the upper tablet
}

func (r *SplitTabletRequest) Op() Op { return OpSplitTablet }
func (r *SplitTabletRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.U64(&r.SplitAt)
	return c
}

// SplitTabletResponse acknowledges the split.
type SplitTabletResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *SplitTabletResponse) Op() Op { return OpSplitTablet }
func (r *SplitTabletResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.MapVersion)
	return c
}

// EnlistServerRequest registers a server with the coordinator.
type EnlistServerRequest struct {
	Server ServerID
}

func (r *EnlistServerRequest) Op() Op { return OpEnlistServer }
func (r *EnlistServerRequest) codec(c Coder) Coder {
	c.Server(&r.Server)
	return c
}

// EnlistServerResponse acknowledges enlistment.
type EnlistServerResponse struct{ Status Status }

func (r *EnlistServerResponse) Op() Op              { return OpEnlistServer }
func (r *EnlistServerResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// ReportCrashRequest notifies the coordinator of a suspected server crash,
// triggering recovery.
type ReportCrashRequest struct {
	Server ServerID
}

func (r *ReportCrashRequest) Op() Op { return OpReportCrash }
func (r *ReportCrashRequest) codec(c Coder) Coder {
	c.Server(&r.Server)
	return c
}

// ReportCrashResponse acknowledges that recovery was initiated (or that
// the server was already recovered).
type ReportCrashResponse struct{ Status Status }

func (r *ReportCrashResponse) Op() Op              { return OpReportCrash }
func (r *ReportCrashResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }

// MergeTabletsRequest coalesces the two adjacent tablets of one table that
// meet at boundary MergeAt (the first hash of the upper tablet) back into a
// single tablet. Both tablets must live on the same master and have no
// active lineage dependency; merging is pure map surgery, no data moves.
type MergeTabletsRequest struct {
	Table TableID
	// MergeAt is the boundary to erase: the Start of the upper tablet,
	// i.e. the value a prior SplitTabletRequest passed as SplitAt.
	MergeAt uint64
}

func (r *MergeTabletsRequest) Op() Op { return OpMergeTablets }
func (r *MergeTabletsRequest) codec(c Coder) Coder {
	c.Table(&r.Table)
	c.U64(&r.MergeAt)
	return c
}

// MergeTabletsResponse acknowledges the merge.
type MergeTabletsResponse struct {
	Status     Status
	MapVersion uint64
}

func (r *MergeTabletsResponse) Op() Op { return OpMergeTablets }
func (r *MergeTabletsResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.MapVersion)
	return c
}

// TabletHeat is one tablet's decayed access-rate estimate in a heat
// snapshot: accesses per decay interval, exponentially weighted toward the
// most recent interval.
type TabletHeat struct {
	Table TableID
	Range HashRange
	// Heat is the decayed access count (reads + writes, scaled up by the
	// sampling rate so it estimates true accesses, not samples).
	Heat uint64
}

func (h *TabletHeat) codec(c Coder) Coder {
	c.Table(&h.Table)
	c.Range(&h.Range)
	c.U64(&h.Heat)
	return c
}

// GetHeatRequest polls one server for its heat snapshot and SLO signals.
type GetHeatRequest struct{}

func (r *GetHeatRequest) Op() Op              { return OpGetHeat }
func (r *GetHeatRequest) codec(c Coder) Coder { return c }

// GetHeatResponse carries the per-tablet heat snapshot plus the dispatch
// queue-wait p99 per priority level in microseconds — the signal the
// rebalancer's SLO guard watches (index = Priority value).
type GetHeatResponse struct {
	Status  Status
	Tablets []TabletHeat
	// QueueWaitP99Micros has NumPriorities entries; entry i is the p99
	// dispatch queue wait of Priority(i) in microseconds.
	QueueWaitP99Micros []uint64
}

func (r *GetHeatResponse) Op() Op { return OpGetHeat }
func (r *GetHeatResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	list(&c, &r.Tablets)
	c.U64s(&r.QueueWaitP99Micros)
	return c
}

// RebalanceControlRequest drives the coordinator's rebalancer loop from
// operator tooling: enable or disable scheduling, or just read status.
type RebalanceControlRequest struct {
	// Enable/Disable toggle the loop; both false means status-only.
	Enable  bool
	Disable bool
}

func (r *RebalanceControlRequest) Op() Op { return OpRebalanceControl }
func (r *RebalanceControlRequest) codec(c Coder) Coder {
	c.Bool(&r.Enable)
	c.Bool(&r.Disable)
	return c
}

// RebalanceControlResponse reports the loop's state and lifetime counters.
type RebalanceControlResponse struct {
	Status  Status
	Enabled bool
	// BackingOff is true while the SLO guard is holding back scheduling.
	BackingOff bool
	// Lifetime action counters.
	Splits     uint64
	Merges     uint64
	Migrations uint64
	Backoffs   uint64
}

func (r *RebalanceControlResponse) Op() Op { return OpRebalanceControl }
func (r *RebalanceControlResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Bool(&r.Enabled)
	c.Bool(&r.BackingOff)
	c.U64(&r.Splits)
	c.U64(&r.Merges)
	c.U64(&r.Migrations)
	c.U64(&r.Backoffs)
	return c
}

// ---------------------------------------------------------------------------
// Durable backup storage
// ---------------------------------------------------------------------------

// BackupStatusRequest asks a server's backup service for its segment
// store counters (`rocksteady-cli backup status`).
type BackupStatusRequest struct{}

func (r *BackupStatusRequest) Op() Op              { return OpBackupStatus }
func (r *BackupStatusRequest) codec(c Coder) Coder { return c }

// BackupStatusResponse reports a backup's segment store state.
type BackupStatusResponse struct {
	Status Status
	// Persistent reports a file-backed store (survives restart).
	Persistent bool
	// Segments/SealedSegments count replicas held across all masters.
	Segments       uint64
	SealedSegments uint64
	// Bytes held now; BytesWritten cumulative (rewrites included).
	Bytes        uint64
	BytesWritten uint64
	// SyncLag counts appends accepted but not yet fsynced (0 between
	// batches; durability acks never race ahead of it).
	SyncLag uint64
}

func (r *BackupStatusResponse) Op() Op { return OpBackupStatus }
func (r *BackupStatusResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.Bool(&r.Persistent)
	c.U64(&r.Segments)
	c.U64(&r.SealedSegments)
	c.U64(&r.Bytes)
	c.U64(&r.BytesWritten)
	c.U64(&r.SyncLag)
	return c
}

// RecoverMasterRequest asks the coordinator to rebuild a master's data
// from the backup segment replicas live servers hold for it — the
// cold-start recovery path after a full-cluster restart, where no crash
// report fires because every process died together. The caller recreates
// tables first; replayed records route onto the current tablet map.
type RecoverMasterRequest struct {
	Master ServerID
}

func (r *RecoverMasterRequest) Op() Op { return OpRecoverMaster }
func (r *RecoverMasterRequest) codec(c Coder) Coder {
	c.Server(&r.Master)
	return c
}

// RecoverMasterResponse reports what the cold recovery replayed.
type RecoverMasterResponse struct {
	Status Status
	// Segments is the number of backup segment replicas fetched; Records
	// the live records installed onto current masters.
	Segments uint64
	Records  uint64
}

func (r *RecoverMasterResponse) Op() Op { return OpRecoverMaster }
func (r *RecoverMasterResponse) codec(c Coder) Coder {
	c.Status(&r.Status)
	c.U64(&r.Segments)
	c.U64(&r.Records)
	return c
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

// PingRequest checks liveness.
type PingRequest struct{}

func (r *PingRequest) Op() Op              { return OpPing }
func (r *PingRequest) codec(c Coder) Coder { return c }

// PingResponse answers a ping.
type PingResponse struct{ Status Status }

func (r *PingResponse) Op() Op              { return OpPing }
func (r *PingResponse) codec(c Coder) Coder { return statusOnly(c, &r.Status) }
