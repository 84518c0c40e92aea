package backup

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// replicateOne applies one chunk to s as a one-chunk batch and returns the
// chunk's status.
func replicateOne(s *Store, master wire.ServerID, c wire.ReplicateChunk) wire.Status {
	resp := s.HandleReplicateBatch(&wire.ReplicateBatchRequest{Master: master, Chunks: []wire.ReplicateChunk{c}})
	return resp.ChunkStatuses[0]
}

func TestStoreReplicateAndFetch(t *testing.T) {
	s := NewStore()
	req := wire.ReplicateChunk{LogID: 0, SegmentID: 1, Offset: 0, Data: []byte("hello")}
	if st := replicateOne(s, 5, req); st != wire.StatusOK {
		t.Fatalf("status %v", st)
	}
	// Incremental append.
	req2 := wire.ReplicateChunk{LogID: 0, SegmentID: 1, Offset: 5, Data: []byte(" world"), Close: true}
	if st := replicateOne(s, 5, req2); st != wire.StatusOK {
		t.Fatalf("status %v", st)
	}
	resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 5})
	if len(resp.Segments) != 1 || !bytes.Equal(resp.Segments[0].Data, []byte("hello world")) {
		t.Fatalf("segments %+v", resp.Segments)
	}
	if s.BytesWritten() != 11 {
		t.Errorf("BytesWritten = %d", s.BytesWritten())
	}
	// Another master's data is invisible.
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 6}); len(resp.Segments) != 0 {
		t.Error("cross-master leak")
	}
}

func TestStoreRejectsGapsAndClosedWrites(t *testing.T) {
	s := NewStore()
	base := wire.ReplicateChunk{SegmentID: 1, Offset: 0, Data: []byte("abc")}
	if st := replicateOne(s, 1, base); st != wire.StatusOK {
		t.Fatal(st)
	}
	// Gap: offset beyond current length.
	gap := wire.ReplicateChunk{SegmentID: 1, Offset: 10, Data: []byte("x")}
	if st := replicateOne(s, 1, gap); st == wire.StatusOK {
		t.Error("gap accepted")
	}
	// Idempotent prefix rewrite is fine.
	dup := wire.ReplicateChunk{SegmentID: 1, Offset: 0, Data: []byte("abcde")}
	if st := replicateOne(s, 1, dup); st != wire.StatusOK {
		t.Error("prefix rewrite rejected")
	}
	// Close, then further data is rejected.
	cls := wire.ReplicateChunk{SegmentID: 1, Offset: 5, Close: true}
	if st := replicateOne(s, 1, cls); st != wire.StatusOK {
		t.Error("close rejected")
	}
	late := wire.ReplicateChunk{SegmentID: 1, Offset: 5, Data: []byte("zz")}
	if st := replicateOne(s, 1, late); st == wire.StatusOK {
		t.Error("write after close accepted")
	}
}

func TestStoreDrop(t *testing.T) {
	s := NewStore()
	replicateOne(s, 1, wire.ReplicateChunk{SegmentID: 1, Data: []byte("a")})
	replicateOne(s, 2, wire.ReplicateChunk{SegmentID: 1, Data: []byte("b")})
	s.Drop(1)
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 1}); len(resp.Segments) != 0 {
		t.Error("drop incomplete")
	}
	if resp := s.HandleGetSegments(&wire.GetBackupSegmentsRequest{Master: 2}); len(resp.Segments) != 1 {
		t.Error("drop removed wrong master")
	}
}

func TestStoreThrottle(t *testing.T) {
	s := NewStore()
	s.WriteBandwidth = 1 << 20 // 1 MB/s
	start := time.Now()
	for i := 0; i < 4; i++ {
		replicateOne(s, 1, wire.ReplicateChunk{SegmentID: uint64(i), Data: make([]byte, 256<<10)})
	}
	// 1 MB at 1 MB/s should take close to a second.
	if el := time.Since(start); el < 500*time.Millisecond {
		t.Errorf("throttle too weak: %v", el)
	}
}

// backupRig wires a replicator to real backup services over a fabric.
type backupRig struct {
	fabric  *transport.Fabric
	master  *transport.Node
	backups []*Store
	repl    *Replicator
}

func newBackupRig(t *testing.T, nBackups, factor int) *backupRig {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	rig := &backupRig{fabric: f}
	var ids []wire.ServerID
	for i := 0; i < nBackups; i++ {
		id := wire.ServerID(100 + i)
		ids = append(ids, id)
		store := NewStore()
		rig.backups = append(rig.backups, store)
		node := transport.NewNode(f.Attach(id))
		node.SetHandler(func(m *wire.Message) {
			switch req := m.Body.(type) {
			case *wire.ReplicateBatchRequest:
				node.Reply(m, store.HandleReplicateBatch(req))
			}
		})
		node.Start()
		t.Cleanup(node.Close)
	}
	rig.master = transport.NewNode(f.Attach(1))
	rig.master.Start()
	t.Cleanup(rig.master.Close)
	rig.repl = NewReplicator(rig.master, 1, ids, factor)
	return rig
}

func TestReplicatorSyncDurability(t *testing.T) {
	rig := newBackupRig(t, 3, 2)
	log := storage.NewLog(4096, rig.repl.OnAppend)
	for i := 0; i < 50; i++ {
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("k%02d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With factor 2 of 3 backups, total replica bytes = 2 x appended.
	_, _, appended, _ := log.Stats()
	var total int64
	for _, b := range rig.backups {
		total += b.BytesWritten()
	}
	if total != 2*appended {
		t.Errorf("replica bytes %d, want %d", total, 2*appended)
	}
	if rig.repl.BytesSent() != 2*appended {
		t.Errorf("BytesSent %d, want %d", rig.repl.BytesSent(), 2*appended)
	}
}

// TestFlushSplitsLargeBatches: a flush carrying more than maxBatchBytes
// for one backup travels as several ReplicateBatch RPCs, and every byte
// still lands.
func TestFlushSplitsLargeBatches(t *testing.T) {
	rig := newBackupRig(t, 1, 1)
	log := storage.NewLog(3<<20, rig.repl.OnAppend)
	value := bytes.Repeat([]byte("v"), 64<<10)
	for i := 0; i < 120; i++ { // ~7.7 MB over three segments
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("k%03d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rig.repl.FlushStats(); st.Flushes != 1 || st.RPCs < 2 {
		t.Errorf("flush stats %+v: want one flush split over several RPCs", st)
	}
	_, _, appended, _ := log.Stats()
	if got := rig.backups[0].BytesWritten(); got != appended {
		t.Errorf("replica bytes %d, want %d", got, appended)
	}
}

func TestReplicatorGroupCommit(t *testing.T) {
	rig := newBackupRig(t, 1, 1)
	log := storage.NewLog(1<<20, rig.repl.OnAppend)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err != nil {
					done <- err
					return
				}
				if err := rig.repl.Sync(context.Background()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, _, appended, _ := log.Stats()
	if rig.backups[0].BytesWritten() != appended {
		t.Errorf("backup has %d bytes, want %d", rig.backups[0].BytesWritten(), appended)
	}
}

func TestReplicatorSurvivesBackupFailure(t *testing.T) {
	rig := newBackupRig(t, 3, 2)
	log := storage.NewLog(4096, rig.repl.OnAppend)
	rig.repl.SetSegmentResolver(func(logID, segID uint64) *storage.Segment {
		seg, _ := log.Segment(segID)
		return seg
	})
	if _, _, err := log.AppendObject(1, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := rig.repl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill one backup; replication must keep succeeding on survivors.
	rig.fabric.Kill(100)
	for i := 0; i < 20; i++ {
		if _, _, err := log.AppendObject(1, []byte(fmt.Sprintf("post-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := rig.repl.Sync(context.Background()); err != nil {
			t.Fatalf("sync after backup death: %v", err)
		}
	}
}

func TestReplicatorDisabled(t *testing.T) {
	r := NewReplicator(nil, 1, nil, 3)
	if r.Enabled() {
		t.Fatal("nil replicator enabled")
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.OnAppend(storage.AppendEvent{}) // must not panic
	if err := r.ReplicateSegments(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateSegmentsWhole(t *testing.T) {
	rig := newBackupRig(t, 2, 1)
	log := storage.NewLog(4096, nil) // side-log style: no streaming
	sl := log.NewSideLog(7)
	for i := 0; i < 30; i++ {
		v := log.NextVersion()
		if _, err := sl.Append(1, v, []byte(fmt.Sprintf("s%02d", i)), []byte("vv")); err != nil {
			t.Fatal(err)
		}
	}
	segs := sl.Segments()
	if err := rig.repl.ReplicateSegments(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range rig.backups {
		total += b.BytesWritten()
	}
	var want int64
	for _, s := range segs {
		want += int64(s.Len())
		if s.ReplicatedTo() != s.Len() {
			t.Errorf("segment %d replicatedTo %d, want %d", s.ID, s.ReplicatedTo(), s.Len())
		}
	}
	if total != want {
		t.Errorf("replicated %d bytes, want %d", total, want)
	}
	// Side-log replication shares the batched send path but is not group
	// commit: FlushStats must not count it.
	if st := rig.repl.FlushStats(); st != (FlushStats{}) {
		t.Errorf("ReplicateSegments counted in FlushStats: %+v", st)
	}
}
