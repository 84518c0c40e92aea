package core

import (
	"context"
	"fmt"
	"testing"

	"rocksteady/internal/wire"
)

// newReplayRig returns a migration whose replay runs against a fresh
// server, with no source behind it: only replayRecords is exercised.
func newReplayRig(t *testing.T) (*Migration, func(key string) (uint64, string)) {
	t.Helper()
	m, srv := newManagerRig(t, Options{})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 11)
	t.Cleanup(func() { g.cancelCause(nil) })
	get := func(key string) (uint64, string) {
		ref, ok := srv.HashTable().Get(1, []byte(key), wire.HashKey([]byte(key)))
		if !ok {
			return 0, ""
		}
		rec, err := ref.Record()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Version, string(rec.Value)
	}
	return g, get
}

func pullBatch(from, n int, version uint64) []wire.Record {
	recs := make([]wire.Record, n)
	for i := range recs {
		recs[i] = wire.Record{Table: 1, Version: version,
			Key: []byte(fmt.Sprintf("user%026d", from+i)), Value: make([]byte, 100)}
	}
	return recs
}

// TestReplayBulkAndPriorityPullEitherOrder replays a bulk Pull copy of a
// key and a newer PriorityPull'd copy of it in both orders: the newer
// version must be the one left in the table, and the stale copy must not
// count as migrated.
func TestReplayBulkAndPriorityPullEitherOrder(t *testing.T) {
	const key = "user00000000000000000000000007"
	for _, ppFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("ppFirst=%v", ppFirst), func(t *testing.T) {
			g, get := newReplayRig(t)
			bulk := pullBatch(0, 20, 5) // holds key at version 5
			pp := []wire.Record{{Table: 1, Version: 6, Key: []byte(key), Value: []byte("newer")}}
			if ppFirst {
				g.replayRecords(pp)
				g.replayRecords(bulk)
			} else {
				g.replayRecords(bulk)
				g.replayRecords(pp)
			}
			if v, val := get(key); v != 6 || val != "newer" {
				t.Fatalf("key holds v%d %q, want v6 \"newer\"", v, val)
			}
			if v, _ := get("user00000000000000000000000008"); v != 5 {
				t.Fatalf("neighbour key holds v%d, want v5", v)
			}
			want := int64(len(bulk) + 1)
			if ppFirst {
				want-- // the bulk copy lost to the PriorityPull'd one
			}
			if got := g.Result().RecordsPulled; got != want {
				t.Fatalf("RecordsPulled = %d, want %d", got, want)
			}
		})
	}
}

// TestReplayBatchZeroAllocs pins the side-log replay of one Pull response
// at zero allocations: the ref scratch lives with the borrowed side log.
func TestReplayBatchZeroAllocs(t *testing.T) {
	g, _ := newReplayRig(t)
	recs := pullBatch(0, 120, 1) // ~20 KB, one Pull response
	allocs := testing.AllocsPerRun(50, func() {
		for i := range recs {
			recs[i].Version++ // every replay stores, as fresh Pulls do
		}
		g.replayRecords(recs)
	})
	if allocs != 0 {
		t.Fatalf("replayRecords allocates %.1f times per batch, want 0", allocs)
	}
	if g.ctx.Err() != nil {
		t.Fatalf("replay failed: %v", context.Cause(g.ctx))
	}
}

// TestReplayAfterSideLogsClose replays a PriorityPull response that
// arrives after the epilogue closed and committed the side logs: it must
// land in the main log instead of failing the migration with an append to
// a committed side log.
func TestReplayAfterSideLogsClose(t *testing.T) {
	g, get := newReplayRig(t)
	g.replayRecords(pullBatch(0, 20, 5))
	for _, sl := range g.closeSideLogs() {
		if err := sl.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const key = "user00000000000000000000000042"
	g.replayRecords([]wire.Record{{Table: 1, Version: 6, Key: []byte(key), Value: []byte("late")}})
	if err := g.Result().Err; err != nil {
		t.Fatalf("late replay failed the migration: %v", err)
	}
	if v, val := get(key); v != 6 || val != "late" {
		t.Fatalf("late record reads v%d %q, want v6 \"late\"", v, val)
	}
	if got := g.Result().RecordsPulled; got != 21 {
		t.Fatalf("RecordsPulled = %d, want 21", got)
	}
}
