// Binary trace format. Campaign results round-trip to disk without the
// text overhead of CSV (~26 bytes per sample): a small header followed
// by the sample columns.
//
// Layout (all varints are unsigned LEB128 as in encoding/binary):
//
//	magic   "BLTRC" (5 bytes)
//	version 1 byte (1 or 2)
//	name    uvarint length + bytes
//	unit    uvarint length + bytes
//	epoch   zigzag varint unix seconds + uvarint nanoseconds
//	        (the first sample's wall-clock timestamp; 0/0 when empty)
//	count   uvarint sample count
//
// Version 1 payload — fixed-width records, the straightforward dump:
//
//	count × (zigzag varint timestamp-offset nanos, 8-byte LE float bits)
//
// Version 2 payload — chunked and delta-encoded, matching the columnar
// chunks of internal/samples (samples.ChunkLen per chunk):
//
//	per chunk: uvarint chunk length n, then n × zigzag varint timestamp
//	delta-of-delta (a constant sampling period encodes as zero, one
//	byte per sample), then n × uvarint (value bits XOR previous value
//	bits; repeated values collapse to one byte). Timestamp and value
//	predictors run across chunk boundaries.
//
// Both versions decode with ReadBinary; WriteBinary emits version 2.
// The CSV text format (WriteCSV/ReadCSV) remains readable and written
// wherever it was before.
//
// The layout is written down once, on plain columns: appendHeader and
// v2Encoder.appendChunk build it into a byte slice, DecodeHeader and
// Header.DecodeSamples take it apart from one. Series.WriteBinary,
// EncodeBinary, ReadBinary and DecodeBinary move a Series' columns through
// them; AppendBinary and the two decode functions serve callers that hold
// columns and bytes already (internal/api's sample frames) and have no
// use for a Series or its streaming summary.

package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"batterylab/internal/samples"
)

// Binary format versions.
const (
	BinaryV1 = 1 // plain records
	BinaryV2 = 2 // chunked, delta/XOR encoded
)

const binMagic = "BLTRC"

// maxStringLen bounds the name and unit fields.
const maxStringLen = 1 << 16

// WriteBinary encodes the series in the current binary format (v2).
func (s *Series) WriteBinary(w io.Writer) error {
	return EncodeBinary(w, s, BinaryV2)
}

// EncodeBinary encodes the series at an explicit format version —
// version 1 for compatibility fixtures, version 2 (the default) for
// everything else. Each storage chunk goes to w in one Write, the
// header with the first.
func EncodeBinary(w io.Writer, s *Series, version int) error {
	if version != BinaryV1 && version != BinaryV2 {
		return fmt.Errorf("trace: unknown binary version %d", version)
	}
	buf := appendHeader(nil, version, s.name, s.unit, s.epoch, s.Len())
	growFor(w, len(buf)+9*s.Len()) // a capture's v2 sample is about 8 bytes, a v1 record 9 or more
	var enc v2Encoder
	var err error
	s.data.Chunks(func(offs []int64, vals []float64) bool {
		if version == BinaryV1 {
			buf = appendRecordsV1(buf, offs, vals)
		} else {
			buf = enc.appendChunk(buf, offs, vals)
		}
		_, err = w.Write(buf)
		buf = buf[:0]
		return err == nil
	})
	if err == nil && len(buf) > 0 { // an empty series: the header alone
		_, err = w.Write(buf)
	}
	return err
}

// AppendBinary appends the v2 encoding of one trace held as plain
// columns — offs[i] nanoseconds after epoch, non-decreasing, paired with
// vals[i] — to dst and returns the extended slice. The bytes are those
// WriteBinary produces for a Series holding the same samples.
func AppendBinary(dst []byte, name, unit string, epoch time.Time, offs []int64, vals []float64) []byte {
	dst = appendHeader(dst, BinaryV2, name, unit, epoch, len(offs))
	var enc v2Encoder
	for start := 0; start < len(offs); start += samples.ChunkLen {
		end := min(start+samples.ChunkLen, len(offs))
		dst = enc.appendChunk(dst, offs[start:end], vals[start:end])
	}
	return dst
}

// appendHeader appends everything ahead of the payload. An empty trace
// has no first sample and encodes its epoch as 0/0.
func appendHeader(dst []byte, version int, name, unit string, epoch time.Time, count int) []byte {
	dst = append(dst, binMagic...)
	dst = append(dst, byte(version))
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(unit)))
	dst = append(dst, unit...)
	var sec int64
	var nsec uint64
	if count > 0 {
		sec, nsec = epoch.Unix(), uint64(epoch.Nanosecond())
	}
	dst = binary.AppendVarint(dst, sec)
	dst = binary.AppendUvarint(dst, nsec)
	return binary.AppendUvarint(dst, uint64(count))
}

// appendRecordsV1 appends the version 1 payload for one run of samples.
func appendRecordsV1(dst []byte, offs []int64, vals []float64) []byte {
	for i, off := range offs {
		dst = binary.AppendVarint(dst, off)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
	}
	return dst
}

// v2Encoder holds the version 2 predictors, which run across chunks.
type v2Encoder struct {
	prevT, prevDelta int64
	prevBits         uint64
}

// appendChunk appends one version 2 chunk (at most samples.ChunkLen
// samples): its length, the timestamp column as delta-of-delta, then
// the value column XORed against the previous value.
func (e *v2Encoder) appendChunk(dst []byte, offs []int64, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(offs)))
	for _, off := range offs {
		delta := off - e.prevT
		dst = binary.AppendVarint(dst, delta-e.prevDelta)
		e.prevT, e.prevDelta = off, delta
	}
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^e.prevBits)
		e.prevBits = bits
	}
	return dst
}

// Header is what a binary trace states ahead of its samples.
type Header struct {
	Version int
	// Name and Unit alias the decoded bytes.
	Name, Unit []byte
	// EpochSec and EpochNsec (below one second) are the wall-clock time
	// sample offsets count from.
	EpochSec  int64
	EpochNsec uint64
	// Count is the number of samples, already checked against the bytes
	// that follow: it is safe to size an allocation from.
	Count int
}

// Epoch reports the time sample offsets count from.
func (h Header) Epoch() time.Time {
	return time.Unix(h.EpochSec, int64(h.EpochNsec)).UTC()
}

// DecodeHeader parses the header of a binary trace of either version
// and returns it with the payload bytes that follow it.
func DecodeHeader(data []byte) (h Header, payload []byte, err error) {
	if len(data) < len(binMagic) {
		return h, nil, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(binMagic)]) != binMagic {
		return h, nil, fmt.Errorf("trace: bad magic %q (not a binary trace)", data[:len(binMagic)])
	}
	p := len(binMagic)
	if p == len(data) {
		return h, nil, fmt.Errorf("trace: reading version: %w", io.ErrUnexpectedEOF)
	}
	h.Version = int(data[p])
	p++
	if h.Version != BinaryV1 && h.Version != BinaryV2 {
		return h, nil, fmt.Errorf("trace: unsupported binary version %d", h.Version)
	}
	if h.Name, p, err = headerString(data, p); err != nil {
		return h, nil, err
	}
	if h.Unit, p, err = headerString(data, p); err != nil {
		return h, nil, err
	}
	sec, k := binary.Varint(data[p:])
	if k <= 0 {
		return h, nil, varintError("epoch seconds", k)
	}
	p += k
	nsec, k := binary.Uvarint(data[p:])
	if k <= 0 {
		return h, nil, varintError("epoch nanoseconds", k)
	}
	p += k
	if nsec >= uint64(time.Second) {
		return h, nil, fmt.Errorf("trace: epoch nanoseconds %d exceed one second", nsec)
	}
	count, k := binary.Uvarint(data[p:])
	if k <= 0 {
		return h, nil, varintError("sample count", k)
	}
	p += k
	payload = data[p:]
	// A version 1 sample is at least 9 bytes, a version 2 sample at least
	// 2: a count the payload cannot hold is refused before anything is
	// sized from it.
	minSample := 9
	if h.Version == BinaryV2 {
		minSample = 2
	}
	if count > uint64(len(payload)/minSample) {
		return h, nil, fmt.Errorf("trace: %d samples stated, %d payload bytes: %w", count, len(payload), io.ErrUnexpectedEOF)
	}
	h.EpochSec, h.EpochNsec, h.Count = sec, nsec, int(count)
	return h, payload, nil
}

// headerString reads a length-prefixed string at data[p:], returning it
// (aliasing data) and the position after it.
func headerString(data []byte, p int) ([]byte, int, error) {
	n, k := binary.Uvarint(data[p:])
	if k <= 0 {
		return nil, 0, varintError("string length", k)
	}
	p += k
	if n > maxStringLen {
		return nil, 0, fmt.Errorf("trace: unreasonable string length %d", n)
	}
	if n > uint64(len(data)-p) {
		return nil, 0, fmt.Errorf("trace: reading %d-byte string: %w", n, io.ErrUnexpectedEOF)
	}
	return data[p : p+int(n)], p + int(n), nil
}

// varintError explains a failed binary.Varint/Uvarint: k == 0 is a
// buffer that ended early, k < 0 a value past 64 bits.
func varintError(what string, k int) error {
	if k == 0 {
		return fmt.Errorf("trace: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: %s overflows 64 bits", what)
}

// DecodeSamples decodes the payload DecodeHeader returned with h,
// calling visit with each sample's offset from the header epoch
// (nanoseconds) and its value, in order. Offsets must not decrease and
// the last must be within an int64 of the first, so offset arithmetic
// on what visit receives cannot overflow. Samples visited before an
// error is found are to be discarded. Bytes past the last sample are
// ignored.
func (h Header) DecodeSamples(payload []byte, visit func(off int64, v float64)) error {
	var first, prevT int64
	p := 0
	switch h.Version {
	case BinaryV1:
		for i := 0; i < h.Count; i++ {
			off, k := binary.Varint(payload[p:])
			if k <= 0 {
				return varintError(fmt.Sprintf("sample %d", i), k)
			}
			p += k
			if len(payload)-p < 8 {
				return fmt.Errorf("trace: sample %d: %w", i, io.ErrUnexpectedEOF)
			}
			bits := binary.LittleEndian.Uint64(payload[p:])
			p += 8
			if i == 0 {
				first = off
			} else if off < prevT || off-first < 0 {
				return orderError(i, off, prevT, first)
			}
			prevT = off
			visit(off, math.Float64frombits(bits))
		}
	case BinaryV2:
		var prevDelta int64
		var prevBits uint64
		for read := 0; read < h.Count; {
			n64, k := binary.Uvarint(payload[p:])
			if k <= 0 {
				return varintError("chunk header", k)
			}
			p += k
			if n64 == 0 || n64 > samples.ChunkLen || n64 > uint64(h.Count-read) {
				return fmt.Errorf("trace: bad chunk length %d (%d of %d samples read)", n64, read, h.Count)
			}
			n := int(n64)
			// The value column starts where the n-th timestamp varint
			// ends; finding that first lets both columns decode in step.
			vp := p
			for left := n; left > 0; vp++ {
				if vp == len(payload) {
					return fmt.Errorf("trace: timestamps of the chunk at sample %d: %w", read, io.ErrUnexpectedEOF)
				}
				if payload[vp] < 0x80 {
					left--
				}
			}
			timestamps := payload[:vp]
			for i := read; i < read+n; i++ {
				dod, k := binary.Varint(timestamps[p:])
				if k <= 0 {
					return varintError(fmt.Sprintf("timestamp %d", i), k)
				}
				p += k
				x, k := binary.Uvarint(payload[vp:])
				if k <= 0 {
					return varintError(fmt.Sprintf("value %d", i), k)
				}
				vp += k
				prevDelta += dod
				off := prevT + prevDelta
				if i == 0 {
					first = off
				} else if prevDelta < 0 || off < prevT || off-first < 0 {
					return orderError(i, off, prevT, first)
				}
				prevT = off
				prevBits ^= x
				visit(off, math.Float64frombits(prevBits))
			}
			p = vp
			read += n
		}
	}
	return nil
}

// orderError reports sample i's offset as behind its predecessor's, or
// further from the first than an int64 holds (which is also how a
// wrapped-around sum shows).
func orderError(i int, off, prev, first int64) error {
	return fmt.Errorf("trace: sample %d: out-of-order timestamp offset %d (previous %d, first %d)", i, off, prev, first)
}

// ReadBinary decodes a series written by WriteBinary or EncodeBinary,
// accepting both format versions. It reads r to its end.
func ReadBinary(r io.Reader) (*Series, error) {
	var data []byte
	var err error
	if held, ok := r.(interface{ Len() int }); ok {
		// A bytes.Reader or Buffer — what every caller in this repository
		// passes — says what it still holds: one exact buffer, where
		// io.ReadAll would grow to it through several times its size.
		data = make([]byte, held.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: reading binary trace: %w", err)
	}
	return DecodeBinary(data)
}

// DecodeBinary is ReadBinary for a caller that holds the encoded bytes
// already (a fetched artifact). It only reads data and keeps none of it.
func DecodeBinary(data []byte) (*Series, error) {
	h, payload, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	s := NewSeries(string(h.Name), string(h.Unit))
	var first int64
	err = h.DecodeSamples(payload, func(off int64, v float64) {
		if !s.hasEpoch {
			s.epoch, s.hasEpoch = h.Epoch().Add(time.Duration(off)), true
			first = off
		}
		s.appendOffset(off-first, v)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
