package xdr

import "encoding/binary"

// Byte-slice XDR cursors for the shallow dispatch path. The Encoder/Decoder
// above operate on mbuf chains — right for payload-bearing procedures,
// where the chain discipline is what makes zero-copy possible — but a
// header-only request (GETATTR, LOOKUP, the MNT herd) fits entirely in the
// reader's receive buffer, and for those the chain machinery is pure
// overhead: pool traffic, cursor state, a copy into mbufs that the reply
// immediately linearizes back out of. ByteReader and ByteWriter are the
// flat-buffer equivalents: the same wire format (big-endian, 4-byte
// alignment), no allocation, no chain.

// ByteReader reads XDR items from a byte slice. Failure is sticky: after
// the first short or malformed item every subsequent call reports !ok, so
// decode sequences can check once at the end.
type ByteReader struct {
	buf []byte
	off int
	bad bool
}

// ResetBytes points the reader at b.
func (r *ByteReader) ResetBytes(b []byte) { r.buf, r.off, r.bad = b, 0, false }

// Offset returns the cursor position (bytes consumed).
func (r *ByteReader) Offset() int { return r.off }

// Remaining returns the number of unread bytes.
func (r *ByteReader) Remaining() int { return len(r.buf) - r.off }

// OK reports whether every read so far succeeded.
func (r *ByteReader) OK() bool { return !r.bad }

// Uint32 decodes a 32-bit unsigned integer.
func (r *ByteReader) Uint32() uint32 {
	if r.bad || r.off+4 > len(r.buf) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// FixedOpaque returns a view of n opaque bytes (no length prefix), skipping
// the alignment pad. The view aliases the input buffer.
func (r *ByteReader) FixedOpaque(n int) []byte {
	if r.bad || n < 0 || r.off+Pad(n) > len(r.buf) {
		r.bad = true
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += Pad(n)
	return v
}

// Opaque decodes variable-length opaque data bounded by max, returning a
// view into the input buffer.
func (r *ByteReader) Opaque(max int) []byte {
	n := r.Uint32()
	if r.bad || int(n) > max {
		r.bad = true
		return nil
	}
	return r.FixedOpaque(int(n))
}

// ByteWriter appends XDR items to a byte slice, growing it with append
// semantics. Callers on the fast path hand it a slice with enough spare
// capacity that no growth (and so no allocation) occurs.
type ByteWriter struct {
	buf []byte
}

// ResetBytes points the writer at b; items append after len(b).
func (w *ByteWriter) ResetBytes(b []byte) { w.buf = b }

// Bytes returns everything written (including the initial contents of the
// reset slice).
func (w *ByteWriter) Bytes() []byte { return w.buf }

// Len returns the current output length.
func (w *ByteWriter) Len() int { return len(w.buf) }

// PutUint32 encodes a 32-bit unsigned integer.
func (w *ByteWriter) PutUint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// PutBool encodes an XDR boolean.
func (w *ByteWriter) PutBool(v bool) {
	if v {
		w.PutUint32(1)
	} else {
		w.PutUint32(0)
	}
}

// PutFixedOpaque encodes opaque data of agreed length (no prefix), padded.
func (w *ByteWriter) PutFixedOpaque(p []byte) {
	w.buf = append(w.buf, p...)
	for pad := Pad(len(p)) - len(p); pad > 0; pad-- {
		w.buf = append(w.buf, 0)
	}
}

// PutString encodes an XDR string.
func (w *ByteWriter) PutString(s string) {
	w.PutUint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	for pad := Pad(len(s)) - len(s); pad > 0; pad-- {
		w.buf = append(w.buf, 0)
	}
}
