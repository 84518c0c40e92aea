package wire

import (
	"bytes"
	"testing"
)

func poolTestMessage() *Message {
	records := make([]Record, 8)
	for i := range records {
		records[i] = Record{
			Table:   3,
			Version: uint64(i + 1),
			Key:     []byte{byte(i), 'k', 'e', 'y'},
			Value:   bytes.Repeat([]byte{byte(i)}, 64),
		}
	}
	return &Message{
		ID: 99, From: 10, To: 11, Op: OpPull, IsResponse: true,
		Body: &PullResponse{Status: StatusOK, ResumeToken: 5, Records: records},
	}
}

// drainRecordSlices empties the shared free list so pool tests start from a
// known state regardless of what earlier tests deposited.
func drainRecordSlices() {
	for {
		select {
		case <-recordSlices:
		default:
			return
		}
	}
}

// TestPooledMarshalZeroAllocs locks in the tentpole property: marshalling
// through the pooled buffer path allocates nothing once the pool is warm.
func TestPooledMarshalZeroAllocs(t *testing.T) {
	msg := poolTestMessage()
	// Warm the pool and grow the buffer to the message size.
	ReleaseBuffer(MarshalMessagePooled(msg))
	allocs := testing.AllocsPerRun(100, func() {
		fb := MarshalMessagePooled(msg)
		ReleaseBuffer(fb)
	})
	if allocs != 0 {
		t.Fatalf("pooled marshal allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWireSizeZeroAllocs pins Message.WireSize at zero allocations: the
// fabric calls it on every delivery, for a point read and for a full Pull
// batch alike.
func TestWireSizeZeroAllocs(t *testing.T) {
	read := &Message{ID: 1, From: 7, To: 8, Op: OpRead,
		Body: &ReadRequest{Table: 3, Key: []byte("user000000000000000000000042")}}
	records := make([]Record, 0, 200)
	for used := 0; used < 20<<10; {
		r := Record{Table: 3, Version: uint64(len(records) + 1),
			Key: []byte("user000000000000000000000042"), Value: bytes.Repeat([]byte{'v'}, 100)}
		records = append(records, r)
		used += r.WireSize()
	}
	pull := &Message{ID: 2, From: 8, To: 7, Op: OpPull, IsResponse: true,
		Body: &PullResponse{Status: StatusOK, Records: records, ResumeToken: 9}}
	for name, m := range map[string]*Message{"ReadRequest": read, "PullResponse": pull} {
		if allocs := testing.AllocsPerRun(100, func() { _ = m.WireSize() }); allocs != 0 {
			t.Errorf("%s: WireSize allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestPooledRoundtripAllocs bounds the full pooled marshal+unmarshal cycle:
// only the decoded *Message and its body struct are allocated per message.
func TestPooledRoundtripAllocs(t *testing.T) {
	msg := poolTestMessage()
	roundtrip := func() {
		fb := MarshalMessagePooled(msg)
		m, err := UnmarshalMessage(fb.B)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseRecordSlice(m.Body.(*PullResponse).Records)
		ReleaseBuffer(fb)
	}
	roundtrip() // warm the pools
	allocs := testing.AllocsPerRun(100, roundtrip)
	if allocs > 2 {
		t.Fatalf("pooled roundtrip allocates %.1f objects/op, want <= 2 (message + body)", allocs)
	}
}

func TestMarshalPooledMatchesMarshal(t *testing.T) {
	msg := poolTestMessage()
	plain := MarshalMessage(msg)
	fb := MarshalMessagePooled(msg)
	defer ReleaseBuffer(fb)
	if !bytes.Equal(plain, fb.B) {
		t.Fatalf("pooled marshal bytes differ from MarshalMessage")
	}
}

func TestGetBufferEmpty(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, 1, 2, 3)
	ReleaseBuffer(b)
	got := GetBuffer()
	defer ReleaseBuffer(got)
	if len(got.B) != 0 {
		t.Fatalf("GetBuffer returned len %d, want 0", len(got.B))
	}
}

func TestReleaseBufferDropsOversized(t *testing.T) {
	ReleaseBuffer(nil) // must not panic
	big := &Buffer{B: make([]byte, 0, maxPooledBuffer+1)}
	ReleaseBuffer(big)
	got := GetBuffer()
	defer ReleaseBuffer(got)
	if got == big {
		t.Fatalf("oversized buffer was pooled")
	}
}

// TestReleaseRecordSliceClears verifies parked slices never pin the log
// segments or frame buffers their records aliased.
func TestReleaseRecordSliceClears(t *testing.T) {
	drainRecordSlices()
	rs := GetRecordSlice()
	rs = append(rs, Record{Key: []byte("k"), Value: []byte("v"), Version: 7})
	ReleaseRecordSlice(rs)
	if got := rs[:1][0]; got.Key != nil || got.Value != nil || got.Version != 0 {
		t.Fatalf("released slice retains record %+v", got)
	}
}

func TestRecordSlicePoolRoundTrip(t *testing.T) {
	drainRecordSlices()
	rs := GetRecordSlice()
	for i := 0; i < 100; i++ {
		rs = append(rs, Record{Version: uint64(i)})
	}
	grownCap := cap(rs)
	ReleaseRecordSlice(rs)
	got := GetRecordSlice()
	if len(got) != 0 || cap(got) != grownCap {
		t.Fatalf("pool returned len=%d cap=%d, want len=0 cap=%d", len(got), cap(got), grownCap)
	}
	ReleaseRecordSlice(got)
	drainRecordSlices()

	// Slices beyond the residency cap and the shared empty slice are dropped.
	ReleaseRecordSlice(make([]Record, 0, maxPooledRecordCap+1))
	ReleaseRecordSlice([]Record{})
	select {
	case rs := <-recordSlices:
		t.Fatalf("pooled a slice that should have been dropped (cap %d)", cap(rs))
	default:
	}
}

// TestDecodeCountGuards feeds each count-prefixed list a count far larger
// than the remaining bytes: decoding must fail with ErrTruncated instead of
// pre-allocating gigabytes for a corrupt frame.
func TestDecodeCountGuards(t *testing.T) {
	huge := func() []byte {
		e := Coder{mode: encoding}
		n := uint32(1 << 30)
		e.U32(&n)
		return e.buf
	}
	cases := map[string]func(c *Coder){
		"Records":   func(c *Coder) { c.Records(new([]Record)) },
		"Blobs":     func(c *Coder) { c.Blobs(new([][]byte)) },
		"U64s":      func(c *Coder) { c.U64s(new([]uint64)) },
		"ServerIDs": func(c *Coder) { c.ServerIDs(new([]ServerID)) },
		"Statuses":  func(c *Coder) { c.Statuses(new([]Status)) },
		"Chunks":    func(c *Coder) { list(c, new([]ReplicateChunk)) },
		"Segments":  func(c *Coder) { list(c, new([]BackupSegment)) },
		"Tablets":   func(c *Coder) { list(c, new([]Tablet)) },
		"Indexlets": func(c *Coder) { list(c, new([]Indexlet)) },
		"Heat":      func(c *Coder) { list(c, new([]TabletHeat)) },
	}
	for name, decode := range cases {
		d := Coder{mode: decoding, buf: huge()}
		decode(&d)
		if !d.truncated() {
			t.Fatalf("%s: corrupt count decoded without error", name)
		}
	}
}

// TestCountGuardMinimums pins each list's count-guard minimum, the size of
// its smallest element, to the wire layout.
func TestCountGuardMinimums(t *testing.T) {
	var record Coder
	record.Record(&Record{})
	cases := map[string][2]int{
		"record":   {int(record.n), 25},
		"chunk":    {minWire[ReplicateChunk](), 25},
		"segment":  {minWire[BackupSegment](), 21},
		"tablet":   {minWire[Tablet](), 32},
		"indexlet": {minWire[Indexlet](), 32},
		"heat":     {minWire[TabletHeat](), 32},
	}
	if minRecordWire != int(record.n) {
		t.Errorf("minRecordWire %d, smallest record encoding %d", minRecordWire, record.n)
	}
	for name, c := range cases {
		if c[0] != c[1] {
			t.Errorf("%s: guard minimum %d, want %d", name, c[0], c[1])
		}
	}
}

// TestDecoderAliased verifies the flag the TCP read loop uses to decide
// whether a frame buffer can be recycled.
func TestDecoderAliased(t *testing.T) {
	a, b := uint64(1), uint64(2)
	e := Coder{mode: encoding}
	e.U64(&a)
	e.U64(&b)
	d := Coder{mode: decoding, buf: e.buf}
	d.U64(&a)
	d.U64(&b)
	if d.aliased {
		t.Fatalf("scalar-only decode marked aliased")
	}
	payload := []byte("payload")
	e = Coder{mode: encoding}
	e.Blob(&payload)
	d = Coder{mode: decoding, buf: e.buf}
	d.Blob(&payload)
	if !d.aliased {
		t.Fatalf("blob decode not marked aliased")
	}
}

// TestRecordsDecodePooled: a non-empty record list decodes into a pooled
// slice with exactly pre-sized capacity when the pool can't satisfy it.
func TestRecordsDecodePooled(t *testing.T) {
	drainRecordSlices()
	msg := poolTestMessage()
	want := len(msg.Body.(*PullResponse).Records)
	buf := MarshalMessage(msg)
	m, err := UnmarshalMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Body.(*PullResponse).Records
	if len(got) != want {
		t.Fatalf("decoded %d records, want %d", len(got), want)
	}
	ReleaseRecordSlice(got)
	// The released slice should now serve the next decode without growing.
	m2, err := UnmarshalMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2 := m2.Body.(*PullResponse).Records
	if cap(got2) < want {
		t.Fatalf("second decode did not reuse pooled capacity (cap %d)", cap(got2))
	}
	ReleaseRecordSlice(got2)
}
