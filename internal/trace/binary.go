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

package trace

import (
	"bufio"
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

var binMagic = [5]byte{'B', 'L', 'T', 'R', 'C'}

// WriteBinary encodes the series in the current binary format (v2).
func (s *Series) WriteBinary(w io.Writer) error {
	return EncodeBinary(w, s, BinaryV2)
}

// EncodeBinary encodes the series at an explicit format version —
// version 1 for compatibility fixtures, version 2 (the default) for
// everything else.
func EncodeBinary(w io.Writer, s *Series, version int) error {
	if version != BinaryV1 && version != BinaryV2 {
		return fmt.Errorf("trace: unknown binary version %d", version)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(version)); err != nil {
		return err
	}
	writeString(bw, s.name)
	writeString(bw, s.unit)
	var sec int64
	var nsec uint64
	if s.hasEpoch && s.Len() > 0 {
		sec = s.epoch.Unix()
		nsec = uint64(s.epoch.Nanosecond())
	}
	writeVarint(bw, sec)
	writeUvarint(bw, nsec)
	writeUvarint(bw, uint64(s.Len()))

	switch version {
	case BinaryV1:
		var scratch [8]byte
		var werr error
		s.data.Iter(func(off int64, v float64) bool {
			writeVarint(bw, off)
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			if _, err := bw.Write(scratch[:]); err != nil {
				werr = err
				return false
			}
			return true
		})
		if werr != nil {
			return werr
		}
	case BinaryV2:
		n := s.Len()
		prevT, prevDelta := int64(0), int64(0)
		prevBits := uint64(0)
		for start := 0; start < n; start += samples.ChunkLen {
			end := start + samples.ChunkLen
			if end > n {
				end = n
			}
			writeUvarint(bw, uint64(end-start))
			chunk := s.data.Slice(start, end)
			chunk.Iter(func(off int64, _ float64) bool {
				delta := off - prevT
				writeVarint(bw, delta-prevDelta)
				prevT, prevDelta = off, delta
				return true
			})
			chunk.Iter(func(_ int64, v float64) bool {
				bits := math.Float64bits(v)
				writeUvarint(bw, bits^prevBits)
				prevBits = bits
				return true
			})
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a series written by WriteBinary or EncodeBinary,
// accepting both format versions.
func ReadBinary(r io.Reader) (*Series, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a binary trace)", magic[:])
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != BinaryV1 && version != BinaryV2 {
		return nil, fmt.Errorf("trace: unsupported binary version %d", version)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	unit, err := readString(br)
	if err != nil {
		return nil, err
	}
	sec, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	nsec, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	epoch := time.Unix(sec, int64(nsec)).UTC()
	s := NewSeries(name, unit)

	switch version {
	case BinaryV1:
		var scratch [8]byte
		for i := uint64(0); i < count; i++ {
			off, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: sample %d: %w", i, err)
			}
			if _, err := io.ReadFull(br, scratch[:]); err != nil {
				return nil, fmt.Errorf("trace: sample %d: %w", i, err)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
			if err := s.Append(epoch.Add(time.Duration(off)), v); err != nil {
				return nil, err
			}
		}
	case BinaryV2:
		prevT, prevDelta := int64(0), int64(0)
		prevBits := uint64(0)
		offs := make([]int64, 0, samples.ChunkLen)
		for read := uint64(0); read < count; {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: chunk header: %w", err)
			}
			if n == 0 || n > samples.ChunkLen || read+n > count {
				return nil, fmt.Errorf("trace: bad chunk length %d (%d of %d samples read)", n, read, count)
			}
			offs = offs[:0]
			for i := uint64(0); i < n; i++ {
				dod, err := binary.ReadVarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: timestamp %d: %w", read+i, err)
				}
				prevDelta += dod
				prevT += prevDelta
				offs = append(offs, prevT)
			}
			for i := uint64(0); i < n; i++ {
				x, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: value %d: %w", read+i, err)
				}
				prevBits ^= x
				if err := s.Append(epoch.Add(time.Duration(offs[i])), math.Float64frombits(prevBits)); err != nil {
					return nil, err
				}
			}
			read += n
		}
	}
	if uint64(s.Len()) != count {
		return nil, fmt.Errorf("trace: decoded %d of %d samples", s.Len(), count)
	}
	return s, nil
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("trace: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// The varint writers encode into the bufio.Writer's own spare capacity:
// a local array passed to Write escapes to the heap, once per call.

func writeUvarint(w *bufio.Writer, x uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), x))
}

func writeVarint(w *bufio.Writer, x int64) {
	w.Write(binary.AppendVarint(w.AvailableBuffer(), x))
}
