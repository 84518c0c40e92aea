package storage

import (
	"fmt"
	"sort"
	"testing"

	"rocksteady/internal/wire"
)

// replayBatch builds records the way a Pull response delivers them: in
// bucket order, so consecutive records share a stripe. It mixes in every
// case the version gate decides: a fresh key, a newer version of a key
// already stored, an equal version, an older version, and tombstones, plus
// a key that repeats within the batch.
func replayBatch(ht *HashTable, n int) []wire.Record {
	recs := make([]wire.Record, 0, n+1)
	for i := 0; i < n; i++ {
		r := wire.Record{Table: 1, Version: uint64(100 + i%4), Key: []byte(fmt.Sprintf("key-%05d", i)),
			Value: []byte(fmt.Sprintf("val-%d", i))}
		if i%11 == 0 {
			r.Tombstone, r.Value = true, nil
		}
		recs = append(recs, r)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return ht.BucketOf(wire.HashKey(recs[i].Key)) < ht.BucketOf(wire.HashKey(recs[j].Key))
	})
	// The same key again, newer, right after its first copy.
	dup := recs[3]
	dup.Version += 10
	return append(recs[:4], append([]wire.Record{dup}, recs[4:]...)...)
}

// TestPutIfNewerBatchMatchesPerRecord replays one batch through
// PutIfNewerBatch and, on a twin table, through PutIfNewer record by
// record: the stored flags, the replaced refs and the final contents must
// be identical. The batch crosses stripe boundaries and holds runs longer
// than maxStripeRun, and the stripe sequences show each such run was split
// at the cap.
func TestPutIfNewerBatchMatchesPerRecord(t *testing.T) {
	l := NewLog(1<<20, nil)
	perRecord := NewHashTable(1 << 16)
	batched := NewHashTable(1 << 16)
	recs := replayBatch(batched, 3000)

	// Pre-existing entries at versions 101 and 102: the batch's versions
	// 100..103 are then older, equal or newer than what is stored.
	for i := 0; i < len(recs); i += 2 {
		rec := recs[i]
		ref, err := l.AppendObjectVersion(rec.Table, 101+uint64(i%4)/2, rec.Key, []byte("stored"))
		if err != nil {
			t.Fatal(err)
		}
		h, _ := ref.Header()
		perRecord.PutIfNewer(rec.Table, rec.Key, wire.HashKey(rec.Key), ref, h.Version)
		batched.PutIfNewer(rec.Table, rec.Key, wire.HashKey(rec.Key), ref, h.Version)
	}

	sl := l.NewSideLog(9)
	refs, err := sl.AppendBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	seqBefore := stripeSeqSum(batched)
	batched.PutIfNewerBatch(recs, refs)
	sections := (stripeSeqSum(batched) - seqBefore) / 2

	var inserted, replaced, rejected, tombstones int
	for i, rec := range recs {
		prev, stored := perRecord.PutIfNewer(rec.Table, rec.Key, wire.HashKey(rec.Key), refs[i].Ref, rec.Version)
		if stored != refs[i].Stored || prev != refs[i].Prev {
			t.Fatalf("record %d (%s v%d): batch stored=%v prev=%v, per-record stored=%v prev=%v",
				i, rec.Key, rec.Version, refs[i].Stored, refs[i].Prev, stored, prev)
		}
		switch {
		case !stored:
			rejected++
		case prev.IsZero():
			inserted++
		default:
			replaced++
		}
		if stored && rec.Tombstone {
			tombstones++
		}
	}
	if inserted == 0 || replaced == 0 || rejected == 0 || tombstones == 0 {
		t.Fatalf("batch misses a case: %d inserted, %d replaced, %d rejected, %d tombstones stored",
			inserted, replaced, rejected, tombstones)
	}
	if a, b := tableContents(perRecord), tableContents(batched); len(a) != len(b) {
		t.Fatalf("contents differ: %d entries per record, %d batched", len(a), len(b))
	} else {
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("entry %+v: per-record %v, batched %v", k, v, b[k])
			}
		}
	}

	// Count the runs the batch forms and the write sections the cap
	// allows for them.
	var want uint64
	longest, stripes := 0, 0
	for i := 0; i < len(recs); {
		st := batched.stripeOf(batched.BucketOf(wire.HashKey(recs[i].Key)))
		j := i
		for j < len(recs) && batched.stripeOf(batched.BucketOf(wire.HashKey(recs[j].Key))) == st {
			j++
		}
		longest = max(longest, j-i)
		want += uint64((j - i + maxStripeRun - 1) / maxStripeRun)
		stripes++
		i = j
	}
	if longest <= maxStripeRun || stripes < 2 {
		t.Fatalf("batch shape does not exercise the cap: longest run %d, %d stripe runs", longest, stripes)
	}
	if sections != want {
		t.Fatalf("batch took %d write sections, want %d (runs split at %d)", sections, want, maxStripeRun)
	}
}

type tableKey struct {
	hash uint64
	ref  Ref
}

func tableContents(ht *HashTable) map[tableKey]bool {
	out := map[tableKey]bool{}
	ht.ForEach(func(hash uint64, ref Ref) bool {
		out[tableKey{hash, ref}] = true
		return true
	})
	return out
}

func stripeSeqSum(ht *HashTable) uint64 {
	var sum uint64
	for i := range ht.stripes {
		sum += ht.stripes[i].seq.Load()
	}
	return sum
}

// TestSideLogAppendBatch checks the batch append against the per-record
// main-log path: every entry parses with a valid checksum and carries the
// record's fields, epochs strictly increase, a segment rolls over
// mid-batch, and the log statistics come out the same.
func TestSideLogAppendBatch(t *testing.T) {
	const segSize = 1024
	recs := make([]wire.Record, 40)
	for i := range recs {
		recs[i] = wire.Record{Table: 2, Version: uint64(50 + i), Key: []byte(fmt.Sprintf("k%02d", i)),
			Value: []byte("some value bytes")}
		if i%7 == 3 {
			recs[i].Tombstone, recs[i].Value = true, nil
		}
	}

	main := NewLog(segSize, nil)
	sl := main.NewSideLog(5)
	if _, err := appendSide(sl, 2, 1, []byte("first"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	refs, err := sl.AppendBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(recs) {
		t.Fatalf("%d refs for %d records", len(refs), len(recs))
	}
	segs := map[*Segment]bool{}
	var lastEpoch uint64
	for i, r := range refs {
		if r.Stored || !r.Prev.IsZero() {
			t.Fatalf("ref %d carries a stale outcome: %+v", i, r)
		}
		h, key, value, err := r.Ref.Entry()
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		rec := recs[i]
		wantType := EntryObject
		if rec.Tombstone {
			wantType = EntryTombstone
		}
		if h.Type != wantType || h.Table != rec.Table || h.Version != rec.Version ||
			string(key) != string(rec.Key) || string(value) != string(rec.Value) {
			t.Fatalf("ref %d decodes as %v %q=%q, want %+v", i, &h, key, value, rec)
		}
		if h.Epoch <= lastEpoch {
			t.Fatalf("ref %d epoch %d not above %d", i, h.Epoch, lastEpoch)
		}
		lastEpoch = h.Epoch
		segs[r.Ref.Seg] = true
	}
	if len(segs) < 2 {
		t.Fatal("batch did not roll over a segment")
	}

	// The same appends record by record on a main log.
	ref := NewLog(segSize, nil)
	if _, err := ref.AppendObjectVersion(2, 1, []byte("first"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		var err error
		if rec.Tombstone {
			_, err = ref.AppendTombstone(rec.Table, rec.Version, 0, rec.Key)
		} else {
			_, err = ref.AppendObjectVersion(rec.Table, rec.Version, rec.Key, rec.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ge, gl, ga, gc := sl.log.Stats()
	we, wl, wa, wc := ref.Stats()
	if ge != we || gl != wl || ga != wa || gc != wc {
		t.Fatalf("batch stats (%d,%d,%d,%d), per-record (%d,%d,%d,%d)", ge, gl, ga, gc, we, wl, wa, wc)
	}
	if sl.AppendedBytes() != ref.AppendedBytes() {
		t.Fatalf("AppendedBytes %d, per-record %d", sl.AppendedBytes(), ref.AppendedBytes())
	}
	if got, want := len(sl.Segments()), ref.SegmentCount(); got != want {
		t.Fatalf("%d segments, per-record %d", got, want)
	}
}

// TestSideLogAppendBatchOversize stops at an entry that cannot fit any
// segment and reports the prefix it appended.
func TestSideLogAppendBatchOversize(t *testing.T) {
	sl := NewLog(256, nil).NewSideLog(3)
	recs := []wire.Record{
		{Table: 1, Version: 1, Key: []byte("a"), Value: []byte("small")},
		{Table: 1, Version: 2, Key: []byte("b"), Value: make([]byte, 512)},
	}
	refs, err := sl.AppendBatch(recs)
	if err == nil || len(refs) != 1 {
		t.Fatalf("oversize batch: %d refs, err %v", len(refs), err)
	}
	if e, _, _, _ := sl.log.Stats(); e != 1 {
		t.Fatalf("EntryCount %d after a one-entry prefix", e)
	}
}
