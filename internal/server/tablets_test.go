package server

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Property suite for the RCU tablet-map surgery the rebalancer leans on:
// SplitTablet and MergeTablets are pure boundary edits, so no sequence of
// them may ever change where a key routes, and each must be the other's
// exact inverse.

func newBareServer(t *testing.T) *Server {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	srv := New(Config{ID: 10, Workers: 2}, f.Attach(10))
	t.Cleanup(srv.Close)
	return srv
}

// probeHashes hashes n synthetic keys, the way clients route them.
func probeHashes(n int) []uint64 {
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = wire.HashKey([]byte(fmt.Sprintf("prop-key-%06d", i)))
	}
	return hashes
}

// routing captures the full routing decision for every probe.
func routing(s *Server, table wire.TableID, hashes []uint64) []TabletState {
	out := make([]TabletState, len(hashes))
	for i, h := range hashes {
		st, ok := s.tabletFor(table, h)
		if !ok {
			out[i] = TabletState(255) // distinguishable "unrouted"
			continue
		}
		out[i] = st
	}
	return out
}

// entriesOf snapshots (range, state) pairs sorted by start.
func entriesOf(s *Server, table wire.TableID) []tabletEntry {
	tm := s.tabletSnapshot()
	var out []tabletEntry
	for _, e := range tm.entries {
		if e.table == table {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rng.Start < out[j].rng.Start })
	return out
}

// checkTiling asserts the table's entries exactly tile the full hash space.
func checkTiling(t *testing.T, s *Server, table wire.TableID) {
	t.Helper()
	es := entriesOf(s, table)
	if len(es) == 0 {
		t.Fatal("no entries")
	}
	if es[0].rng.Start != 0 || es[len(es)-1].rng.End != ^uint64(0) {
		t.Fatalf("does not span full range: %+v", es)
	}
	for i := 0; i+1 < len(es); i++ {
		if es[i].rng.End+1 != es[i+1].rng.Start {
			t.Fatalf("gap or overlap between %v and %v", es[i].rng, es[i+1].rng)
		}
	}
}

func TestServerSplitMergeRoutingProperty(t *testing.T) {
	srv := newBareServer(t)
	srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	srv.RegisterTablet(2, wire.FullRange(), TabletNormal)

	hashes := probeHashes(10000)
	base := routing(srv, 1, hashes)
	baseOther := routing(srv, 2, hashes)

	// A long random mix of splits (at fresh hashes) and merges (at existing
	// boundaries) must never move a single key's routing, and the map must
	// tile the hash space after every step.
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 200; step++ {
		es := entriesOf(srv, 1)
		if len(es) > 1 && rng.Intn(2) == 0 {
			at := es[1+rng.Intn(len(es)-1)].rng.Start
			if !srv.MergeTablets(1, at) {
				t.Fatalf("step %d: merge at %#x refused", step, at)
			}
		} else {
			at := rng.Uint64()
			srv.SplitTablet(1, at) // false only when at is 0 or already a boundary
		}
		checkTiling(t, srv, 1)
		// Every step spot-checks a window of probes; every 10th sweeps all
		// 10k (a full sweep per step makes the race-mode run crawl).
		lo, span := rng.Intn(len(hashes)), 500
		for i := lo; i < lo+span && i < len(hashes); i++ {
			if st, ok := srv.tabletFor(1, hashes[i]); !ok || st != base[i] {
				t.Fatalf("step %d: key %d rerouted (hash %#x)", step, i, hashes[i])
			}
		}
		if step%10 != 9 {
			continue
		}
		for i, h := range hashes {
			if st, ok := srv.tabletFor(1, h); !ok || st != base[i] {
				t.Fatalf("step %d: key %d rerouted (hash %#x)", step, i, h)
			}
		}
	}
	// The untouched table never changed either.
	for i := range hashes {
		if got := routing(srv, 2, hashes)[i]; got != baseOther[i] {
			t.Fatalf("bystander table rerouted at key %d", i)
		}
	}
}

func TestServerMergeOfSplitIsIdentity(t *testing.T) {
	srv := newBareServer(t)
	srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	srv.SplitTablet(1, 1<<62)
	srv.SplitTablet(1, 3<<62)
	before := entriesOf(srv, 1)

	// merge(split(T)) == T at a fresh boundary…
	const at = uint64(1) << 63
	if !srv.SplitTablet(1, at) {
		t.Fatal("split refused")
	}
	if !srv.MergeTablets(1, at) {
		t.Fatal("merge refused")
	}
	after := entriesOf(srv, 1)
	if len(after) != len(before) {
		t.Fatalf("entry count changed: %d != %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("entry %d changed: %+v != %+v", i, before[i], after[i])
		}
	}

	// …and split(merge(T)) == T at an existing one.
	if !srv.MergeTablets(1, 1<<62) {
		t.Fatal("merge refused")
	}
	if !srv.SplitTablet(1, 1<<62) {
		t.Fatal("split refused")
	}
	restored := entriesOf(srv, 1)
	for i := range before {
		if before[i] != restored[i] {
			t.Fatalf("entry %d not restored: %+v != %+v", i, before[i], restored[i])
		}
	}
}

func TestServerMergeRefusals(t *testing.T) {
	srv := newBareServer(t)
	srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	if srv.MergeTablets(1, 1<<63) {
		t.Fatal("merged a boundary that does not exist")
	}
	// A state boundary is not mergeable: merging immutable migrating-out
	// keys into a live tablet would blur which keys reject writes.
	srv.RegisterTablet(1, wire.HashRange{Start: 1 << 63, End: ^uint64(0)}, TabletMigratingOut)
	if srv.MergeTablets(1, 1<<63) {
		t.Fatal("merged across a state boundary")
	}
	if !srv.SetTabletState(1, wire.HashRange{Start: 1 << 63, End: ^uint64(0)}, TabletMigratingOut, TabletNormal) {
		t.Fatal("state flip failed")
	}
	if !srv.MergeTablets(1, 1<<63) {
		t.Fatal("merge of same-state neighbours refused")
	}
	if got := len(entriesOf(srv, 1)); got != 1 {
		t.Fatalf("entries after merge: %d", got)
	}
}

// TestMigrationEpilogueKeepsNextPrepare: the coordinator drops a
// migration's lineage dependency before the target finishes its epilogue,
// so under ping-pong migration the next migration's PrepareMigration can
// reach that target first. The epilogue's migrating-in → normal step must
// then leave the range migrating out: reopening it let writes be acked
// after the next migration had already pulled their keys.
func TestMigrationEpilogueKeepsNextPrepare(t *testing.T) {
	srv := newBareServer(t)
	upper := wire.HashRange{Start: 1 << 63, End: ^uint64(0)}
	srv.RegisterTablet(1, upper, TabletMigratingIn)
	if resp := srv.handlePrepareMigration(&wire.PrepareMigrationRequest{Table: 1, Range: upper, Target: 11}); resp.Status != wire.StatusOK {
		t.Fatalf("prepare: %v", resp.Status)
	}
	if srv.SetTabletState(1, upper, TabletMigratingIn, TabletNormal) {
		t.Error("epilogue transition changed a range prepared to move out")
	}
	if state, owned := srv.tabletFor(1, upper.Start); !owned || state != TabletMigratingOut {
		t.Fatalf("range state %v (owned %v), want migrating-out", state, owned)
	}
}
