package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The binary format is little-endian with length-prefixed byte slices and
// count-prefixed lists. The in-process fabric never marshals (it hands
// payload pointers across a channel, modelling zero-copy DMA) but charges
// every message its encoded size; marshalling exists for the TCP transport
// and for durability tooling.
//
// Each body's codec method lists its fields once, in wire order. A Coder
// runs that list in one of three modes — size, encode, decode — so
// Message.WireSize, AppendMessage and UnmarshalMessageShared follow the same
// list and the size equals the encoded length by construction.

// ErrTruncated reports a message that ended before its payload did.
var ErrTruncated = errors.New("wire: truncated message")

type coderMode uint8

const (
	sizing coderMode = iota
	encoding
	decoding
)

// Coder runs a field list. Sizing adds each field's encoded size to n,
// encoding appends each field to buf, decoding reads each field from buf
// at offset n. Decode errors are sticky: once the input runs short n stays
// negative and every later field keeps its zero value.
//
// Codec methods take and return the Coder by value: a pointer passed
// through the Payload interface would move every Coder to the heap, and
// Message.WireSize runs once per fabric delivery. The Coder is kept to
// four fields in four words, the most the compiler keeps in registers
// across a call; a larger Coder is copied through memory on every codec
// call. That is why n is an int32 (TCP frames are capped at 64 MB, far
// below its range).
type Coder struct {
	buf  []byte
	n    int32
	mode coderMode
	// aliased records that a decoded value references buf (blobs decode
	// zero-copy), so buf must not be recycled while the message lives.
	aliased bool
}

// truncated reports that decoding ran out of input.
func (c *Coder) truncated() bool { return c.n < 0 }

// need reports whether n more input bytes remain, recording the
// truncation when they do not.
//
//lint:hotpath
func (c *Coder) need(n int) bool {
	if c.n < 0 || int(c.n)+n > len(c.buf) {
		c.n = -1
		return false
	}
	return true
}

// U8 codes one byte.
//
//lint:hotpath
func (c *Coder) U8(v *uint8) {
	switch {
	case c.mode == sizing:
		c.n++
	case c.mode == encoding:
		c.buf = append(c.buf, *v)
	case c.need(1):
		*v = c.buf[c.n]
		c.n++
	}
}

// Bool codes a boolean as one byte; any non-zero byte decodes as true.
//
//lint:hotpath
func (c *Coder) Bool(v *bool) {
	switch {
	case c.mode == sizing:
		c.n++
	case c.mode == encoding:
		var b uint8
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	case c.need(1):
		*v = c.buf[c.n] != 0
		c.n++
	}
}

// U32 codes a little-endian uint32.
//
//lint:hotpath
func (c *Coder) U32(v *uint32) {
	switch {
	case c.mode == sizing:
		c.n += 4
	case c.mode == encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	case c.need(4):
		*v = binary.LittleEndian.Uint32(c.buf[c.n:])
		c.n += 4
	}
}

// U64 codes a little-endian uint64.
//
//lint:hotpath
func (c *Coder) U64(v *uint64) {
	switch {
	case c.mode == sizing:
		c.n += 8
	case c.mode == encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	case c.need(8):
		*v = binary.LittleEndian.Uint64(c.buf[c.n:])
		c.n += 8
	}
}

// Status codes a status byte.
//
//lint:hotpath
func (c *Coder) Status(v *Status) { c.U8((*uint8)(v)) }

// Table codes a table ID.
//
//lint:hotpath
func (c *Coder) Table(v *TableID) { c.U64((*uint64)(v)) }

// Index codes an index ID.
func (c *Coder) Index(v *IndexID) { c.U64((*uint64)(v)) }

// Server codes a server ID.
func (c *Coder) Server(v *ServerID) { c.U64((*uint64)(v)) }

// Range codes a HashRange as its start then its end.
//
//lint:hotpath
func (c *Coder) Range(v *HashRange) {
	c.U64(&v.Start)
	c.U64(&v.End)
}

// Blob codes a length-prefixed byte slice. A decoded blob aliases the
// input buffer; callers that retain it must copy.
//
//lint:hotpath
func (c *Coder) Blob(v *[]byte) {
	switch c.mode {
	case sizing:
		c.n += int32(4 + len(*v))
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		c.buf = append(c.buf, *v...)
	default:
		*v = c.blob()
	}
}

// blob decodes a length-prefixed byte slice without copying.
//
//lint:hotpath
func (c *Coder) blob() []byte {
	var n uint32
	c.U32(&n)
	if !c.need(int(n)) {
		return nil
	}
	end := int(c.n) + int(n)
	v := c.buf[c.n:end:end]
	c.n = int32(end)
	c.aliased = true
	return v
}

// String codes a string as a blob; decoding copies it out of the input.
func (c *Coder) String(v *string) {
	b := []byte(*v)
	c.Blob(&b)
	if c.mode == decoding {
		*v = string(b)
	}
}

// Record codes one record: table, version, tombstone flag, key, value.
// Record.WireSize is the same list's size.
//
//lint:hotpath
func (c *Coder) Record(r *Record) {
	c.Table(&r.Table)
	c.U64(&r.Version)
	c.Bool(&r.Tombstone)
	c.Blob(&r.Key)
	c.Blob(&r.Value)
}

// count codes a list length. Decoding checks the count against the input
// left at minSize bytes per element, so a corrupt count fails with
// ErrTruncated before anything is allocated; after any error it returns 0.
//
//lint:hotpath
func (c *Coder) count(n, minSize int) int {
	u := uint32(n)
	c.U32(&u)
	if c.mode != decoding {
		return n
	}
	if c.n < 0 || int(u)*minSize > len(c.buf)-int(c.n) {
		c.n = -1
		return 0
	}
	return int(u)
}

// items codes a list's count and, when decoding, allocates the list for
// the caller to decode its elements into; minSize is the count guard's
// smallest encoding of one element.
func items[T any](c *Coder, v *[]T, minSize int) {
	n := c.count(len(*v), minSize)
	if c.mode == decoding && !c.truncated() {
		*v = make([]T, n)
	}
}

// Records codes a count-prefixed record list. Decoding fills a pooled
// slice (an exact-capacity allocation when the batch outgrows the pool's
// cap), sized in one step by the count guard.
func (c *Coder) Records(v *[]Record) {
	if c.mode == sizing {
		n := 4
		for i := range *v {
			n += (*v)[i].WireSize()
		}
		c.n += int32(n)
		return
	}
	n := c.count(len(*v), minRecordWire)
	if c.mode == decoding && !c.truncated() {
		*v = []Record{}
		if n > 0 {
			*v = GetRecordSlice()
			if cap(*v) < n {
				ReleaseRecordSlice(*v)
				*v = make([]Record, 0, n)
			}
		}
		*v = (*v)[:n]
	}
	for i := range *v {
		c.Record(&(*v)[i])
	}
}

// Blobs codes a count-prefixed list of blobs.
func (c *Coder) Blobs(v *[][]byte) {
	if c.mode == sizing {
		n := 4
		for _, b := range *v {
			n += 4 + len(b)
		}
		c.n += int32(n)
		return
	}
	items(c, v, 4)
	for i := range *v {
		c.Blob(&(*v)[i])
	}
}

// Statuses codes a count-prefixed list of status bytes.
func (c *Coder) Statuses(v *[]Status) {
	if c.mode == sizing {
		c.n += int32(4 + len(*v))
		return
	}
	items(c, v, 1)
	for i := range *v {
		c.Status(&(*v)[i])
	}
}

// U64s codes a count-prefixed list of uint64s.
func (c *Coder) U64s(v *[]uint64) { words(c, v) }

// ServerIDs codes a count-prefixed list of server IDs.
func (c *Coder) ServerIDs(v *[]ServerID) { words(c, v) }

// words codes a count-prefixed list of 64-bit values.
func words[T ~uint64](c *Coder, v *[]T) {
	if c.mode == sizing {
		c.n += int32(4 + 8*len(*v))
		return
	}
	items(c, v, 8)
	for i := range *v {
		x := uint64((*v)[i])
		c.U64(&x)
		if c.mode == decoding {
			(*v)[i] = T(x)
		}
	}
}

// codable is a list element type whose codec method lists its fields.
type codable[T any] interface {
	*T
	codec(c Coder) Coder
}

// minWire is the encoded size of a zero T: the smallest encoding of one
// list element, its count-guard minimum.
func minWire[T any, P codable[T]]() int {
	var zero T
	return int(P(&zero).codec(Coder{}).n)
}

// list codes a count-prefixed list of structs, each through its own codec
// method. The count guard's minimum is the encoding of a zero element.
func list[T any, P codable[T]](c *Coder, v *[]T) {
	items(c, v, minWire[T, P]())
	for i := range *v {
		*c = P(&(*v)[i]).codec(*c)
	}
}

// codec lists the envelope's fields, then the body's. Decoding builds the
// body from the op table once Op and IsResponse are known, and leaves it
// nil for a pair the table has no body for.
func (m *Message) codec(c Coder) Coder {
	c.U64(&m.ID)
	c.Server(&m.From)
	c.Server(&m.To)
	c.U8((*uint8)(&m.Op))
	c.Bool(&m.IsResponse)
	c.U8((*uint8)(&m.Priority))
	c.U64(&m.TraceID)
	deadline := uint64(m.DeadlineNanos)
	c.U64(&deadline)
	if c.mode == decoding {
		m.DeadlineNanos = int64(deadline)
		m.Body = newBody(m.Op, m.IsResponse)
	}
	if m.Body != nil {
		c = m.Body.codec(c)
	}
	return c
}

// envelopeWire is the envelope's encoded size: its field list sized on a
// message without a body.
var envelopeWire = int((&Message{}).codec(Coder{}).n)

// WireSize returns the message's encoded size, envelope and body.
func (m *Message) WireSize() int {
	if m.Body == nil {
		return envelopeWire
	}
	return envelopeWire + int(m.Body.codec(Coder{}).n)
}

// AppendMessage appends m's full wire encoding (envelope and body) to buf
// and returns the extended slice. It grows buf at most once, to WireSize,
// so marshalling into a warm pooled buffer performs zero allocations.
func AppendMessage(buf []byte, m *Message) []byte {
	buf = slices.Grow(buf, m.WireSize())
	return m.codec(Coder{mode: encoding, buf: buf}).buf
}

// MarshalMessage encodes the full envelope and body into a fresh buffer
// owned by the caller.
func MarshalMessage(m *Message) []byte {
	return AppendMessage(nil, m)
}

// MarshalMessagePooled encodes the full envelope and body into a pooled
// buffer. The caller owns the buffer until it calls ReleaseBuffer.
func MarshalMessagePooled(m *Message) *Buffer {
	b := GetBuffer()
	b.B = AppendMessage(b.B, m)
	return b
}

// UnmarshalMessage decodes a full envelope and body.
func UnmarshalMessage(buf []byte) (*Message, error) {
	m, _, err := UnmarshalMessageShared(buf)
	return m, err
}

// UnmarshalMessageShared decodes a full envelope and body from buf, which
// the caller may intend to recycle: the second result reports whether the
// decoded message retains references into buf (blob-bearing bodies decode
// zero-copy). Only when it is false may the caller reuse buf while the
// message is live.
func UnmarshalMessageShared(buf []byte) (*Message, bool, error) {
	m := new(Message)
	c := m.codec(Coder{mode: decoding, buf: buf})
	switch {
	case c.truncated():
		return nil, c.aliased, ErrTruncated
	case m.Body == nil:
		return nil, c.aliased, fmt.Errorf("wire: cannot unmarshal op=%v response=%v", m.Op, m.IsResponse)
	}
	return m, c.aliased, nil
}
