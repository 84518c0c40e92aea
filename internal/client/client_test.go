package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/cluster"
	"rocksteady/internal/wire"
)

func newTestCluster(t *testing.T, servers int) (*cluster.Cluster, *client.Client) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Servers:           servers,
		Workers:           2,
		SegmentSize:       64 << 10,
		HashTableCapacity: 1 << 14,
		Quiet:             true,
	})
	t.Cleanup(c.Close)
	return c, c.MustClient()
}

func TestClientReadYourWrites(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := cl.Write(context.Background(), table, k, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("read-your-write %s: %q %v", k, v, err)
		}
	}
	if cl.Stats().Ops.Load() != 200 {
		t.Errorf("ops counter = %d", cl.Stats().Ops.Load())
	}
	if cl.Stats().RPCs.Load() < 200 {
		t.Errorf("rpc counter = %d", cl.Stats().RPCs.Load())
	}
}

func TestClientUnknownTable(t *testing.T) {
	_, cl := newTestCluster(t, 1)
	if _, err := cl.Read(context.Background(), 99, []byte("k")); err != client.ErrNoSuchTable {
		t.Fatalf("read unknown table: %v", err)
	}
	if err := cl.Write(context.Background(), 99, []byte("k"), []byte("v")); err != client.ErrNoSuchTable {
		t.Fatalf("write unknown table: %v", err)
	}
}

func TestClientStaleMapRecovery(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(context.Background(), table, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A second client with its own (soon stale) map.
	stale := c.MustClient()
	if _, err := stale.Read(context.Background(), table, []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Move everything; the stale client must chase the redirect.
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	v, err := stale.Read(context.Background(), table, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("stale client read: %q %v", v, err)
	}
	if stale.Stats().MapRefreshes.Load() < 2 {
		t.Errorf("stale client never refreshed (%d)", stale.Stats().MapRefreshes.Load())
	}
}

func TestClientMultiGetGroupsByServer(t *testing.T) {
	c, cl := newTestCluster(t, 4)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	var keys, values [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%02d", i)))
		values = append(values, []byte(fmt.Sprintf("v%02d", i)))
	}
	if err := cl.MultiPut(context.Background(), table, keys, values); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().RPCs.Load()
	got, err := cl.MultiGet(context.Background(), table, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if string(got[i]) != string(values[i]) {
			t.Fatalf("key %s mismatch", keys[i])
		}
	}
	rpcs := cl.Stats().RPCs.Load() - before
	// 64 keys over 4 servers must cost at most 4 RPCs (one per owner),
	// not 64 — the locality optimization of Figure 3.
	if rpcs > 4 {
		t.Fatalf("multiget used %d RPCs for 4 servers", rpcs)
	}
}

func TestClientIndexScanOrdering(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cl.CreateIndex(context.Background(), table, []wire.ServerID{c.Server(0).ID()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, n := range names {
		pk := []byte(fmt.Sprintf("pk-%d", i))
		if err := cl.Write(context.Background(), table, pk, []byte(n)); err != nil {
			t.Fatal(err)
		}
		if err := cl.IndexInsert(context.Background(), idx, []byte(n), pk); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.IndexScan(context.Background(), table, idx, []byte("a"), []byte("z"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("scan returned %d", len(res))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i, r := range res {
		if string(r.Value) != want[i] {
			t.Fatalf("scan order: got %q at %d, want %q", r.Value, i, want[i])
		}
	}
	// Limit honored.
	res, err = cl.IndexScan(context.Background(), table, idx, []byte("a"), []byte("z"), 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("limited scan: %d %v", len(res), err)
	}
}

func TestClientMultiPutLengthMismatch(t *testing.T) {
	_, cl := newTestCluster(t, 1)
	if err := cl.MultiPut(context.Background(), 1, [][]byte{[]byte("a")}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestClientDeleteFlow(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), table, []byte("nope")); err != client.ErrNoSuchKey {
		t.Fatalf("delete missing: %v", err)
	}
	if err := cl.Write(context.Background(), table, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), table, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(context.Background(), table, []byte("k")); err != client.ErrNoSuchKey {
		t.Fatalf("read deleted: %v", err)
	}
}

// TestClientBacksOffOnDeadOwner reads a key whose owner crashed and was
// never reported: every call fails at once. The client must wait between
// attempts (the 2 ms backoff cap bounds it to a few dozen RPCs in 50 ms)
// instead of spending its whole redirect budget against the dead owner.
func TestClientBacksOffOnDeadOwner(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	before := cl.Stats().RPCs.Load()
	if _, err := cl.Read(ctx, table, []byte("k")); err == nil {
		t.Fatal("read from a crashed owner succeeded")
	}
	if rpcs := cl.Stats().RPCs.Load() - before; rpcs > 100 {
		t.Fatalf("%d read RPCs in 50 ms against a dead owner: no backoff between failed calls", rpcs)
	}
}
