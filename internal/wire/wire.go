// Package wire provides the low-level binary encoding used by every NaradaBrokering
// message: sticky-error writers and readers over length-delimited fields with
// unsigned varints, in the spirit of encoding/binary. Keeping the primitives
// in one place lets the event envelope and the discovery message bodies share
// identical framing rules and bounds checks.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Limits protecting decoders from malformed or hostile input.
const (
	MaxStringLen = 1 << 16 // 64 KiB per string field
	MaxBytesLen  = 1 << 24 // 16 MiB per payload
	MaxListLen   = 1 << 16 // 64 Ki elements per list
)

// Decode errors.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrTooLarge  = errors.New("wire: field exceeds size limit")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
)

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// maxPooledCap caps the buffer capacity retained by pooled writers, so one
// jumbo frame does not pin megabytes inside the pool forever.
const maxPooledCap = 1 << 16

// writerPool recycles Writer structs (and their grown buffers) across
// messages; encoding is the per-frame hot path of the whole substrate.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a pooled Writer with at least capacity bytes of buffer.
// Pair it with Release; take ownership of encoded bytes with Detach first.
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	} else {
		w.buf = w.buf[:0]
	}
	return w
}

// Release returns w to the pool. The buffer is retained for reuse, so the
// caller must not hold on to slices obtained from Bytes — use Detach to keep
// the encoded message alive past Release.
func (w *Writer) Release() {
	if cap(w.buf) > maxPooledCap {
		w.buf = nil
	}
	writerPool.Put(w)
}

// Detach hands ownership of the encoded bytes to the caller, stripping the
// buffer from the writer so a subsequent Release cannot alias the frame.
func (w *Writer) Detach() []byte {
	b := w.buf
	w.buf = nil
	return b
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// ResetWith points the writer at a caller-owned buffer, truncated to zero
// length. Encoding then appends in place, so a caller recycling its own
// frame buffers (e.g. a ref-counted frame pool) pays no allocation when the
// buffer's capacity already fits the message; take the possibly-regrown
// result back with Bytes.
func (w *Writer) ResetWith(buf []byte) { w.buf = buf[:0] }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Time appends a time as Unix nanoseconds (signed varint).
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Varint(0)
		return
	}
	w.Varint(t.UnixNano())
}

// Duration appends a duration in nanoseconds (signed varint).
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes16 appends a fixed 16-byte array (UUIDs).
func (w *Writer) Bytes16(b [16]byte) {
	w.buf = append(w.buf, b[:]...)
}

// BytesField appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// StringList appends a length-prefixed list of strings.
func (w *Writer) StringList(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// StringMap appends a length-prefixed map of string pairs in sorted-key order
// is NOT guaranteed; decoding order follows encoding order.
func (w *Writer) StringMap(m map[string]string) {
	w.Uvarint(uint64(len(m)))
	for k, v := range m {
		w.String(k)
		w.String(v)
	}
}

// Reader decodes a message produced by Writer. Errors are sticky: after the
// first failure every subsequent call is a no-op returning zero values, and
// Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded message.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish verifies the message was fully consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		r.err = fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// Time reads a time encoded by Writer.Time.
func (r *Reader) Time() time.Time {
	ns := r.Varint()
	if r.err != nil || ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Duration reads a duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// Offset returns the position of the next unread byte, letting in-place
// parsers record where a field sits in the input.
func (r *Reader) Offset() int { return r.off }

// StringSpan reads a length-prefixed string field and returns it as a
// sub-slice of the input — no copy, same size limit as String. The span is
// only valid while the input buffer is.
func (r *Reader) StringSpan() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxStringLen {
		r.fail(fmt.Errorf("%w: string of %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.StringSpan()) }

// Bytes16 reads a fixed 16-byte array.
func (r *Reader) Bytes16() [16]byte {
	var out [16]byte
	b := r.take(16)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// BytesSpan reads a length-prefixed byte field and returns it as a sub-slice
// of the input — no copy, same size limit as BytesField.
func (r *Reader) BytesSpan() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(fmt.Errorf("%w: payload of %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.take(int(n))
}

// BytesField reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) BytesField() []byte { return append([]byte(nil), r.BytesSpan()...) }

// StringList reads a list of strings.
func (r *Reader) StringList() []string {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxListLen {
		r.fail(fmt.Errorf("%w: list of %d elements", ErrTooLarge, n))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// SkipStringMap reads past a map of string pairs under StringMap's limits and
// returns the number of pairs on the wire, for in-place parsers that look
// pairs up later instead of building the map.
func (r *Reader) SkipStringMap() int {
	n := r.Uvarint()
	if r.err == nil && n > MaxListLen {
		r.fail(fmt.Errorf("%w: map of %d entries", ErrTooLarge, n))
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		r.StringSpan()
		r.StringSpan()
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// StringMap reads a map of string pairs.
func (r *Reader) StringMap() map[string]string {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxListLen {
		r.fail(fmt.Errorf("%w: map of %d entries", ErrTooLarge, n))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := r.String()
		if r.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}
