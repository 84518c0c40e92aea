// Package client implements the store's client library: tablet-map
// caching with refresh-on-redirect, retry-with-hint handling during
// migration, single-key operations, server-grouped multiget/multiput
// (the locality mechanics Figure 3 measures), and index scans (indexlet
// lookup followed by a multiget-by-hash fan-out, Figure 2).
package client

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// ErrNoSuchKey reports a read of an absent key.
var ErrNoSuchKey = errors.New("client: no such key")

// ErrNoSuchTable reports an operation on an unknown table.
var ErrNoSuchTable = errors.New("client: no such table or tablet")

// ErrRetriesExhausted reports an operation that kept being redirected or
// deferred beyond the retry budget.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// maxAttempts bounds redirect loops per operation; retry-with-hint waits
// (migration in progress) are bounded by retryBudget instead, since a
// cold record may legitimately take a while to arrive.
const maxAttempts = 500

// retryBudget bounds the total time an operation waits across
// StatusRetry responses before giving up.
const retryBudget = 10 * time.Second

// maxRetrySleep caps the exponential retry backoff.
const maxRetrySleep = 2 * time.Millisecond

// Stats counts client-side events; benchmarks sample them.
type Stats struct {
	Ops          atomic.Int64
	Retries      atomic.Int64 // StatusRetry responses observed
	MapRefreshes atomic.Int64
	RPCs         atomic.Int64
}

// Client is one application client.
type Client struct {
	node *transport.Node

	tablets   atomic.Pointer[[]wire.Tablet]
	indexlets atomic.Pointer[[]wire.Indexlet]

	stats Stats

	// SleepOnRetry controls whether the client honors RetryAfterMicros
	// hints by sleeping (default true). Closed-loop benchmark drivers keep
	// it on; tests may disable it.
	SleepOnRetry bool
}

// New creates a client on the given endpoint and fetches the tablet map
// under ctx.
func New(ctx context.Context, ep transport.Endpoint) (*Client, error) {
	return NewWithTimeout(ctx, ep, 0)
}

// NewWithTimeout is New with a custom per-attempt RPC timeout for the
// client's node (0 means the transport default); fault harnesses use
// short ones so injected drops surface quickly.
func NewWithTimeout(ctx context.Context, ep transport.Endpoint, timeout time.Duration) (*Client, error) {
	c := &Client{node: transport.NewNodeWithTimeout(ep, timeout), SleepOnRetry: true}
	c.node.Start()
	if err := c.RefreshMap(ctx); err != nil {
		c.node.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client.
func (c *Client) Close() { c.node.Close() }

// Stats returns the client's counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Node exposes the underlying RPC node (for control operations).
func (c *Client) Node() *transport.Node { return c.node }

// RefreshMap fetches the tablet and indexlet maps from the coordinator.
func (c *Client) RefreshMap(ctx context.Context) error {
	c.stats.MapRefreshes.Add(1)
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
	if err != nil {
		return err
	}
	resp, ok := reply.(*wire.GetTabletMapResponse)
	if !ok || resp.Status != wire.StatusOK {
		return errors.New("client: tablet map fetch failed")
	}
	tablets := resp.Tablets
	indexlets := resp.Indexlets
	c.tablets.Store(&tablets)
	c.indexlets.Store(&indexlets)
	return nil
}

// ownerOf resolves the master for (table, hash) from the cached map.
func (c *Client) ownerOf(table wire.TableID, hash uint64) (wire.ServerID, bool) {
	tp := c.tablets.Load()
	if tp == nil {
		return 0, false
	}
	for i := range *tp {
		t := &(*tp)[i]
		if t.Table == table && t.Range.Contains(hash) {
			return t.Master, true
		}
	}
	return 0, false
}

// indexletOf resolves the indexlet holding a secondary key.
func (c *Client) indexletOf(id wire.IndexID, key []byte) (wire.Indexlet, bool) {
	ip := c.indexlets.Load()
	if ip == nil {
		return wire.Indexlet{}, false
	}
	for i := range *ip {
		il := &(*ip)[i]
		if il.Index != id {
			continue
		}
		if len(il.Begin) > 0 && bytes.Compare(key, il.Begin) < 0 {
			continue
		}
		if len(il.End) > 0 && bytes.Compare(key, il.End) >= 0 {
			continue
		}
		return *il, true
	}
	return wire.Indexlet{}, false
}

// backoff tracks retry waits within one operation: it starts at the
// server's hint ("a few tens of microseconds", §3) and doubles up to
// maxRetrySleep, bounding the CPU burned by retry storms while keeping
// the first retry prompt. The zero value is ready to use; the retry
// budget starts at the first sleep, so an operation that never retries
// never reads the clock.
type backoff struct {
	next     time.Duration
	deadline time.Time
}

// sleep waits before the next retry; it returns false once the budget is
// exhausted or ctx is done, so a caller-imposed deadline cuts a retry
// storm short immediately.
func (b *backoff) sleep(ctx context.Context, c *Client, hintMicros uint32) bool {
	if now := time.Now(); b.deadline.IsZero() {
		b.deadline = now.Add(retryBudget)
	} else if now.After(b.deadline) {
		return false
	}
	if ctx.Err() != nil {
		return false
	}
	if !c.SleepOnRetry {
		return true
	}
	hint := time.Duration(hintMicros) * time.Microsecond
	if hint == 0 {
		hint = 40 * time.Microsecond
	}
	if b.next < hint {
		b.next = hint
	}
	if transport.Sleep(ctx, b.next) != nil {
		return false
	}
	b.next *= 2
	if b.next > maxRetrySleep {
		b.next = maxRetrySleep
	}
	return true
}

// Read fetches one object.
func (c *Client) Read(ctx context.Context, table wire.TableID, key []byte) ([]byte, error) {
	v, _, err := c.ReadVersioned(ctx, table, key)
	return v, err
}

// ReadVersioned fetches one object along with its version. Invariant
// checkers use the version to assert per-key monotonicity across
// migrations and recoveries.
func (c *Client) ReadVersioned(ctx context.Context, table wire.TableID, key []byte) ([]byte, uint64, error) {
	c.stats.Ops.Add(1)
	hash := wire.HashKey(key)
	var bo backoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		owner, ok := c.ownerOf(table, hash)
		if !ok {
			if err := c.RefreshMap(ctx); err != nil {
				return nil, 0, err
			}
			if _, ok = c.ownerOf(table, hash); !ok {
				return nil, 0, ErrNoSuchTable
			}
			continue
		}
		c.stats.RPCs.Add(1)
		reply, err := c.node.Call(ctx, owner, wire.PriorityForeground, &wire.ReadRequest{Table: table, Key: key})
		if err != nil {
			// The owner may be down until recovery reassigns its tablets:
			// wait before re-reading the map rather than spinning through
			// the attempt budget against the same dead server.
			if !bo.sleep(ctx, c, 0) {
				return nil, 0, err
			}
			if refreshErr := c.RefreshMap(ctx); refreshErr != nil {
				return nil, 0, err
			}
			continue
		}
		resp, ok := reply.(*wire.ReadResponse)
		if !ok {
			return nil, 0, errors.New("client: bad read response")
		}
		switch resp.Status {
		case wire.StatusOK:
			return resp.Value, resp.Version, nil
		case wire.StatusNoSuchKey:
			return nil, 0, ErrNoSuchKey
		case wire.StatusWrongServer:
			if err := c.RefreshMap(ctx); err != nil {
				return nil, 0, err
			}
		case wire.StatusRetry:
			c.stats.Retries.Add(1)
			if !bo.sleep(ctx, c, resp.RetryAfterMicros) {
				return nil, 0, ErrRetriesExhausted
			}
			attempt-- // retry hints don't consume the redirect budget
		default:
			return nil, 0, wire.StatusError{Status: resp.Status}
		}
	}
	return nil, 0, ErrRetriesExhausted
}

// Write stores one object durably.
func (c *Client) Write(ctx context.Context, table wire.TableID, key, value []byte) error {
	c.stats.Ops.Add(1)
	hash := wire.HashKey(key)
	var bo backoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		owner, ok := c.ownerOf(table, hash)
		if !ok {
			if err := c.RefreshMap(ctx); err != nil {
				return err
			}
			if _, ok = c.ownerOf(table, hash); !ok {
				return ErrNoSuchTable
			}
			continue
		}
		c.stats.RPCs.Add(1)
		reply, err := c.node.Call(ctx, owner, wire.PriorityForeground, &wire.WriteRequest{Table: table, Key: key, Value: value})
		if err != nil {
			if !bo.sleep(ctx, c, 0) {
				return err
			}
			if refreshErr := c.RefreshMap(ctx); refreshErr != nil {
				return err
			}
			continue
		}
		resp, ok := reply.(*wire.WriteResponse)
		if !ok {
			return errors.New("client: bad write response")
		}
		switch resp.Status {
		case wire.StatusOK:
			return nil
		case wire.StatusWrongServer:
			if err := c.RefreshMap(ctx); err != nil {
				return err
			}
		case wire.StatusRetry:
			c.stats.Retries.Add(1)
			if !bo.sleep(ctx, c, 0) {
				return ErrRetriesExhausted
			}
			attempt--
		default:
			return wire.StatusError{Status: resp.Status}
		}
	}
	return ErrRetriesExhausted
}

// Delete removes one object durably.
func (c *Client) Delete(ctx context.Context, table wire.TableID, key []byte) error {
	c.stats.Ops.Add(1)
	hash := wire.HashKey(key)
	var bo backoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		owner, ok := c.ownerOf(table, hash)
		if !ok {
			if err := c.RefreshMap(ctx); err != nil {
				return err
			}
			continue
		}
		c.stats.RPCs.Add(1)
		reply, err := c.node.Call(ctx, owner, wire.PriorityForeground, &wire.DeleteRequest{Table: table, Key: key})
		if err != nil {
			return err
		}
		resp, ok := reply.(*wire.DeleteResponse)
		if !ok {
			return errors.New("client: bad delete response")
		}
		switch resp.Status {
		case wire.StatusOK:
			return nil
		case wire.StatusNoSuchKey:
			return ErrNoSuchKey
		case wire.StatusWrongServer:
			if err := c.RefreshMap(ctx); err != nil {
				return err
			}
		case wire.StatusRetry:
			c.stats.Retries.Add(1)
			if !bo.sleep(ctx, c, 0) {
				return ErrRetriesExhausted
			}
			attempt--
		default:
			return wire.StatusError{Status: resp.Status}
		}
	}
	return ErrRetriesExhausted
}

// MultiGet fetches several keys of one table, grouping them by owning
// server and issuing the per-server RPCs in parallel. The returned values
// align with keys; absent keys yield nil entries.
func (c *Client) MultiGet(ctx context.Context, table wire.TableID, keys [][]byte) ([][]byte, error) {
	c.stats.Ops.Add(1)
	values := make([][]byte, len(keys))
	remaining := make([]int, len(keys))
	for i := range keys {
		remaining[i] = i
	}
	var bo backoff
	for attempt := 0; attempt < maxAttempts && len(remaining) > 0; attempt++ {
		// Group outstanding keys by owner.
		groups := make(map[wire.ServerID][]int)
		needRefresh := false
		for _, i := range remaining {
			owner, ok := c.ownerOf(table, wire.HashKey(keys[i]))
			if !ok {
				needRefresh = true
				continue
			}
			groups[owner] = append(groups[owner], i)
		}
		if needRefresh {
			if err := c.RefreshMap(ctx); err != nil {
				return nil, err
			}
			continue
		}
		type pending struct {
			call *transport.Call
			idxs []int
		}
		calls := make([]pending, 0, len(groups))
		for owner, idxs := range groups {
			req := &wire.MultiGetRequest{Table: table, Keys: make([][]byte, len(idxs))}
			for j, i := range idxs {
				req.Keys[j] = keys[i]
			}
			c.stats.RPCs.Add(1)
			calls = append(calls, pending{call: c.node.Go(ctx, owner, wire.PriorityForeground, req), idxs: idxs})
		}
		var retryHint uint32
		var next []int
		refresh, callFailed := false, false
		for _, p := range calls {
			reply, err := p.call.Wait()
			if err != nil {
				refresh, callFailed = true, true
				next = append(next, p.idxs...)
				continue
			}
			resp, ok := reply.(*wire.MultiGetResponse)
			if !ok {
				return nil, errors.New("client: bad multiget response")
			}
			for j, i := range p.idxs {
				switch resp.Statuses[j] {
				case wire.StatusOK:
					values[i] = resp.Values[j]
				case wire.StatusNoSuchKey:
					values[i] = nil
				case wire.StatusWrongServer:
					refresh = true
					next = append(next, i)
				case wire.StatusRetry:
					c.stats.Retries.Add(1)
					if resp.RetryAfterMicros > retryHint {
						retryHint = resp.RetryAfterMicros
					}
					if retryHint == 0 {
						retryHint = 40
					}
					next = append(next, i)
				default:
					return nil, wire.StatusError{Status: resp.Statuses[j]}
				}
			}
		}
		remaining = next
		if callFailed || retryHint > 0 {
			if !bo.sleep(ctx, c, retryHint) {
				return nil, ErrRetriesExhausted
			}
			if retryHint > 0 {
				attempt--
			}
		}
		if refresh {
			if err := c.RefreshMap(ctx); err != nil {
				return nil, err
			}
		}
	}
	if len(remaining) > 0 {
		return nil, ErrRetriesExhausted
	}
	return values, nil
}

// MultiPut stores several objects of one table, grouped by owner.
func (c *Client) MultiPut(ctx context.Context, table wire.TableID, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return errors.New("client: keys/values length mismatch")
	}
	c.stats.Ops.Add(1)
	remaining := make([]int, len(keys))
	for i := range keys {
		remaining[i] = i
	}
	var bo backoff
	for attempt := 0; attempt < maxAttempts && len(remaining) > 0; attempt++ {
		groups := make(map[wire.ServerID][]int)
		for _, i := range remaining {
			owner, ok := c.ownerOf(table, wire.HashKey(keys[i]))
			if !ok {
				if err := c.RefreshMap(ctx); err != nil {
					return err
				}
				groups = nil
				break
			}
			groups[owner] = append(groups[owner], i)
		}
		if groups == nil {
			continue
		}
		var next []int
		refresh, callFailed := false, false
		for owner, idxs := range groups {
			req := &wire.MultiPutRequest{
				Table:  table,
				Keys:   make([][]byte, len(idxs)),
				Values: make([][]byte, len(idxs)),
			}
			for j, i := range idxs {
				req.Keys[j] = keys[i]
				req.Values[j] = values[i]
			}
			c.stats.RPCs.Add(1)
			reply, err := c.node.Call(ctx, owner, wire.PriorityForeground, req)
			if err != nil {
				refresh, callFailed = true, true
				next = append(next, idxs...)
				continue
			}
			resp, ok := reply.(*wire.MultiPutResponse)
			if !ok {
				return errors.New("client: bad multiput response")
			}
			for j, i := range idxs {
				switch resp.Statuses[j] {
				case wire.StatusOK:
				case wire.StatusWrongServer, wire.StatusRetry:
					refresh = refresh || resp.Statuses[j] == wire.StatusWrongServer
					next = append(next, i)
				default:
					return wire.StatusError{Status: resp.Statuses[j]}
				}
			}
		}
		remaining = next
		if callFailed && !bo.sleep(ctx, c, 0) {
			return ErrRetriesExhausted
		}
		if refresh {
			if err := c.RefreshMap(ctx); err != nil {
				return err
			}
		}
	}
	if len(remaining) > 0 {
		return ErrRetriesExhausted
	}
	return nil
}

// IndexInsert adds (secondaryKey -> primary key) to an index.
func (c *Client) IndexInsert(ctx context.Context, id wire.IndexID, secondaryKey, primaryKey []byte) error {
	il, ok := c.indexletOf(id, secondaryKey)
	if !ok {
		if err := c.RefreshMap(ctx); err != nil {
			return err
		}
		if il, ok = c.indexletOf(id, secondaryKey); !ok {
			return ErrNoSuchTable
		}
	}
	c.stats.RPCs.Add(1)
	reply, err := c.node.Call(ctx, il.Master, wire.PriorityForeground, &wire.IndexInsertRequest{
		Index: id, SecondaryKey: secondaryKey, KeyHash: wire.HashKey(primaryKey),
	})
	if err != nil {
		return err
	}
	if resp, ok := reply.(*wire.IndexInsertResponse); !ok || resp.Status != wire.StatusOK {
		return errors.New("client: index insert failed")
	}
	return nil
}

// ScanResult is one record returned by an index scan.
type ScanResult struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// IndexScan returns up to limit records of table whose secondary keys lie
// in [begin, end): an indexlet lookup for ordered primary-key hashes, then
// a multiget-by-hash fan-out to the owning tablets (Figure 2). The number
// of distinct servers contacted is 1 (indexlet) plus however many tablets
// back the hashes — the dispatch amplification Figure 4 measures.
func (c *Client) IndexScan(ctx context.Context, table wire.TableID, id wire.IndexID, begin, end []byte, limit int) ([]ScanResult, error) {
	c.stats.Ops.Add(1)
	il, ok := c.indexletOf(id, begin)
	if !ok {
		if err := c.RefreshMap(ctx); err != nil {
			return nil, err
		}
		if il, ok = c.indexletOf(id, begin); !ok {
			return nil, ErrNoSuchTable
		}
	}
	c.stats.RPCs.Add(1)
	reply, err := c.node.Call(ctx, il.Master, wire.PriorityForeground, &wire.IndexLookupRequest{
		Index: id, Begin: begin, End: end, Limit: uint32(limit),
	})
	if err != nil {
		return nil, err
	}
	lookup, ok := reply.(*wire.IndexLookupResponse)
	if !ok || lookup.Status != wire.StatusOK {
		return nil, errors.New("client: index lookup failed")
	}
	if len(lookup.Hashes) == 0 {
		return nil, nil
	}

	// Fan out by owning tablet.
	var bo backoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		groups := make(map[wire.ServerID][]uint64)
		stale := false
		for _, h := range lookup.Hashes {
			owner, ok := c.ownerOf(table, h)
			if !ok {
				stale = true
				break
			}
			groups[owner] = append(groups[owner], h)
		}
		if stale {
			if err := c.RefreshMap(ctx); err != nil {
				return nil, err
			}
			continue
		}
		type pending struct{ call *transport.Call }
		var calls []pending
		for owner, hashes := range groups {
			c.stats.RPCs.Add(1)
			calls = append(calls, pending{call: c.node.Go(ctx, owner, wire.PriorityForeground,
				&wire.MultiGetByHashRequest{Table: table, Hashes: hashes})})
		}
		order := make(map[uint64]int, len(lookup.Hashes))
		for i, h := range lookup.Hashes {
			if _, ok := order[h]; !ok {
				order[h] = i
			}
		}
		type rankedResult struct {
			res  ScanResult
			rank int
		}
		var out []rankedResult
		retry := false
		var retryHint uint32
		for _, p := range calls {
			reply, err := p.call.Wait()
			if err != nil {
				retry = true
				continue
			}
			resp, ok := reply.(*wire.MultiGetByHashResponse)
			if !ok {
				return nil, errors.New("client: bad multiget-by-hash response")
			}
			switch resp.Status {
			case wire.StatusOK:
				for _, rec := range resp.Records {
					out = append(out, rankedResult{
						res:  ScanResult{Key: rec.Key, Value: rec.Value, Version: rec.Version},
						rank: order[wire.HashKey(rec.Key)],
					})
				}
			case wire.StatusRetry:
				c.stats.Retries.Add(1)
				retry = true
				if resp.RetryAfterMicros > retryHint {
					retryHint = resp.RetryAfterMicros
				}
			case wire.StatusWrongServer:
				retry = true
				if err := c.RefreshMap(ctx); err != nil {
					return nil, err
				}
			default:
				return nil, wire.StatusError{Status: resp.Status}
			}
		}
		if !retry {
			// Restore secondary-key order: the fan-out interleaves servers,
			// but the indexlet returned hashes in key order.
			sort.SliceStable(out, func(i, j int) bool { return out[i].rank < out[j].rank })
			results := make([]ScanResult, len(out))
			for i, r := range out {
				results[i] = r.res
			}
			return results, nil
		}
		if !bo.sleep(ctx, c, retryHint) {
			return nil, ErrRetriesExhausted
		}
		attempt--
	}
	return nil, ErrRetriesExhausted
}

// MigrateTablet asks target to live-migrate (table, rng) away from source
// (§3: "Migration is initiated by a client").
func (c *Client) MigrateTablet(ctx context.Context, table wire.TableID, rng wire.HashRange, source, target wire.ServerID) error {
	reply, err := c.node.Call(ctx, target, wire.PriorityForeground, &wire.MigrateTabletRequest{
		Table: table, Range: rng, Source: source,
	})
	if err != nil {
		return err
	}
	resp, ok := reply.(*wire.MigrateTabletResponse)
	if !ok {
		return errors.New("client: bad migrate response")
	}
	if resp.Status != wire.StatusOK {
		return wire.StatusError{Status: resp.Status}
	}
	return c.RefreshMap(ctx)
}

// CreateTable creates a table spread over the given servers.
func (c *Client) CreateTable(ctx context.Context, name string, servers ...wire.ServerID) (wire.TableID, error) {
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.CreateTableRequest{
		Name: name, Servers: servers,
	})
	if err != nil {
		return 0, err
	}
	resp, ok := reply.(*wire.CreateTableResponse)
	if !ok || resp.Status != wire.StatusOK {
		return 0, errors.New("client: create table failed")
	}
	return resp.Table, c.RefreshMap(ctx)
}

// CreateIndex creates a secondary index over a table, range partitioned
// across the servers at the given split keys.
func (c *Client) CreateIndex(ctx context.Context, table wire.TableID, servers []wire.ServerID, splitKeys [][]byte) (wire.IndexID, error) {
	reply, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.CreateIndexRequest{
		Table: table, Servers: servers, SplitKeys: splitKeys,
	})
	if err != nil {
		return 0, err
	}
	resp, ok := reply.(*wire.CreateIndexResponse)
	if !ok || resp.Status != wire.StatusOK {
		return 0, errors.New("client: create index failed")
	}
	return resp.Index, c.RefreshMap(ctx)
}

// ReportCrash notifies the coordinator that a server appears dead.
func (c *Client) ReportCrash(ctx context.Context, id wire.ServerID) error {
	_, err := c.node.Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.ReportCrashRequest{Server: id})
	return err
}
