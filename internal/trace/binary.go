// Binary trace format. Campaign results round-trip to disk without the
// text overhead of CSV (~26 bytes per sample): a small header followed
// by the sample columns.
//
// Layout (all varints are unsigned LEB128 as in encoding/binary):
//
//	magic   "BLTRC" (5 bytes)
//	version 1 byte (1, 2 or 3)
//	name    uvarint length + bytes
//	unit    uvarint length + bytes
//	epoch   zigzag varint unix seconds + uvarint nanoseconds
//	        (the first sample's wall-clock timestamp; 0/0 when empty)
//	count   uvarint sample count
//	grid    version 3 only: uvarint scale + uvarint max, both at most
//	        2²⁰ (maxGrid). Non-zero, every value is float64(k)/scale for
//	        a level 0 ≤ k ≤ max; 0/0 is no grid.
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
// Version 3 payload — version 2 with two changes, for the traces an
// instrument makes (a Monsoon capture: 5 kHz on the 0.1 mA grid of its
// ADC, about 1 byte a sample against version 2's 8):
//
//	per chunk: uvarint n<<1 | steady. A steady chunk's timestamp column
//	is its first two delta-of-deltas (its first sample's, which sets it
//	against the chunk before, and its second's, which sets its period),
//	every later one being zero; any other chunk's is version 2's. The
//	encoder marks a chunk of 3 or more samples steady when it is. On a
//	grid the value column is n × zigzag varint level delta k − k_prev
//	(k_prev starts at 0 and runs across chunks); with none it is version
//	2's XOR column.
//
// All three versions decode with ReadBinary; WriteBinary emits version 3
// (on the grid a series declares with NewGridSeries, whose levels it
// holds). AppendBinary, the live
// sample frames of internal/api, emits version 2. The CSV text format
// (WriteCSV) remains an export format.
//
// The layout is written down once, on columns: encoder.appendHeader and
// encoder.appendChunk build it into a byte slice for versions 2 and 3
// alike, DecodeHeader and the run decoder (Header.Decoder, a chunk's
// columns per call) take it apart from one. The chunk bodies take a
// steady chunk's offsets as its first two and a grid's values as levels,
// as a Series stores them: Series.WriteBinary, EncodeBinary, ReadBinary
// and DecodeBinary move a Series' chunks through them with no expansion,
// and no grid check but the decoder's. AppendBinary, DecodeHeader and
// the decoder's Next serve callers
// that hold columns and bytes already (internal/analytics, internal/api's
// sample frames) and have no use for a Series or its streaming summary.
// A payload ends with its last stated sample: bytes after it are refused,
// not ignored.

package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"time"

	"batterylab/internal/samples"
)

// Binary format versions.
const (
	BinaryV1 = 1 // plain records
	BinaryV2 = 2 // chunked, delta/XOR encoded
	BinaryV3 = 3 // version 2 with steady-period chunks and grid level deltas
)

const binMagic = "BLTRC"

// maxStringLen bounds the name and unit fields.
const maxStringLen = 1 << 16

// maxGrid bounds a version 3 grid's scale and max: a level delta, at most
// ±2²⁰, zigzags below 2²² and takes at most 4 bytes, and a decoder never
// makes level counts larger.
const maxGrid = 1 << 20

// WriteBinary encodes the series in the current binary format (v3).
func (s *Series) WriteBinary(w io.Writer) error {
	return EncodeBinary(w, s, BinaryV3)
}

// EncodeBinary encodes the series at an explicit format version —
// version 1 and 2 for compatibility (fixtures, the benchmark's v2
// figures), version 3 (the default) for everything else. Version 3 puts
// the values on the grid the series declares, and writes the levels it
// holds. Each storage chunk goes to w in one
// Write, the header with the first. A w that buffers in memory is grown
// once, with the first chunk, to what that chunk's bytes a sample make
// of the whole trace, and an eighth more.
func EncodeBinary(w io.Writer, s *Series, version int) error {
	if version < BinaryV1 || version > BinaryV3 {
		return fmt.Errorf("trace: unknown binary version %d", version)
	}
	enc := encoder{version: version}
	if version == BinaryV3 {
		enc.scale, enc.max = s.Grid()
	}
	buf := enc.appendHeader(nil, s.name, s.unit, s.epoch, s.Len())
	var err error
	first := true
	flush := func(n int) bool {
		if first {
			growFor(w, len(buf)+len(buf)*(s.Len()-n)/n*9/8)
			first = false
		}
		_, err = w.Write(buf)
		buf = buf[:0]
		return err == nil
	}
	if version == BinaryV3 {
		// The chunks as stored: a steady one's first two offsets, and the
		// levels of a series on its grid.
		s.data.Stored(0, func(c samples.Chunk) bool {
			offs := c.T
			if offs == nil {
				two := [2]int64{c.First, c.First + c.Step}
				offs = two[:min(c.Len(), 2)]
			}
			buf = enc.appendChunk(buf, offs, c.V, c.K)
			return flush(c.Len())
		})
	} else {
		s.data.Chunks(0, func(offs []int64, vals []float64) bool {
			if version == BinaryV1 {
				buf = appendRecordsV1(buf, offs, vals)
			} else {
				buf = enc.appendChunk(buf, offs, vals, nil)
			}
			return flush(len(offs))
		})
	}
	if err == nil && len(buf) > 0 { // an empty series: the header alone
		_, err = w.Write(buf)
	}
	return err
}

// AppendBinary appends the v2 encoding of one trace held as plain
// columns — offs[i] nanoseconds after epoch, non-decreasing, paired with
// vals[i] — to dst and returns the extended slice. The bytes are those
// EncodeBinary(…, BinaryV2) produces for a Series holding the same
// samples.
func AppendBinary(dst []byte, name, unit string, epoch time.Time, offs []int64, vals []float64) []byte {
	enc := encoder{version: BinaryV2}
	dst = enc.appendHeader(dst, name, unit, epoch, len(offs))
	for start := 0; start < len(offs); start += samples.ChunkLen {
		end := min(start+samples.ChunkLen, len(offs))
		dst = enc.appendChunk(dst, offs[start:end], vals[start:end], nil)
	}
	return dst
}

// appendRecordsV1 appends the version 1 payload for one run of samples.
func appendRecordsV1(dst []byte, offs []int64, vals []float64) []byte {
	for i, off := range offs {
		dst = binary.AppendVarint(dst, off)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
	}
	return dst
}

// encoder writes one trace at one version. Its predictors run across
// chunks.
type encoder struct {
	version int
	// scale and max are the version 3 grid, 0 and 0 for none.
	scale, max int

	prevT, prevDelta int64
	prevBits         uint64
	prevK            int64
}

// appendHeader appends everything ahead of the payload. An empty trace
// has no first sample and encodes its epoch as 0/0.
func (e *encoder) appendHeader(dst []byte, name, unit string, epoch time.Time, count int) []byte {
	dst = append(dst, binMagic...)
	dst = append(dst, byte(e.version))
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
	dst = binary.AppendUvarint(dst, uint64(count))
	if e.version == BinaryV3 {
		dst = binary.AppendUvarint(dst, uint64(e.scale))
		dst = binary.AppendUvarint(dst, uint64(e.max))
	}
	return dst
}

// appendChunk appends one version 2 or 3 chunk of n samples (at most
// samples.ChunkLen): its length, the timestamp column as delta-of-delta
// (the first two, for a steady version 3 chunk), then the value column,
// XORed against the previous value or, on a grid, as level deltas. offs
// holds the n offsets, or only the first two of a chunk its caller knows
// to be steady (n > 2); vals holds the values, or, on the encoder's grid,
// ks their levels. dst is grown once to hold the chunk's longest
// encoding, and each varint is written into it in place: a one-byte
// delta-of-delta or level delta as a byte, any other varint of up to 56
// bits with one 8-byte store (uvarintWord), a longer one through
// binary.PutUvarint. An 8-byte store needs 8 bytes of room whatever the
// varint's length; the bytes past its end are overwritten by the next one
// or cut off.
func (e *encoder) appendChunk(dst []byte, offs []int64, vals []float64, ks []uint32) []byte {
	n := len(vals) + len(ks)
	ts := offs
	head := uint64(n)
	if e.version == BinaryV3 {
		// Steady: every sample after the second is as far from the one
		// before as the second is from the first.
		steady := uint64(0)
		if len(offs) < n {
			steady = 1
		} else if n > 2 {
			steady = 1
			for i, step := 2, offs[1]-offs[0]; i < n; i++ {
				if offs[i]-offs[i-1] != step {
					steady = 0
					break
				}
			}
		}
		if steady == 1 {
			ts = offs[:2]
		}
		head = head<<1 | steady
	}
	dst = binary.AppendUvarint(dst, head)
	room := binary.MaxVarintLen64 * (len(ts) + n) // a value of any width
	if e.scale > 0 {
		// A level delta within ±2²⁰ zigzags below 2²², four bytes at most.
		room = binary.MaxVarintLen64*len(ts) + 4*n + 8
	}
	p := len(dst)
	dst = slices.Grow(dst, room)
	buf := dst[:cap(dst)]
	prevT, prevDelta := e.prevT, e.prevDelta
	for _, off := range ts {
		delta := off - prevT
		dod := delta - prevDelta
		prevT, prevDelta = off, delta
		if x := zigzag(dod); x < 0x80 { // a steady sampling period
			buf[p] = byte(x)
			p++
		} else {
			p = putUvarint(buf, p, x)
		}
	}
	e.prevT, e.prevDelta = prevT+int64(n-len(ts))*prevDelta, prevDelta

	if e.scale > 0 {
		prevK := e.prevK
		for _, k := range ks {
			if x := zigzag(int64(k) - prevK); x < 0x80 { // a step of a few levels
				buf[p] = byte(x)
				p++
			} else {
				p = putUvarint(buf, p, x)
			}
			prevK = int64(k)
		}
		e.prevK = prevK
		return buf[:p]
	}
	prev := e.prevBits
	for _, v := range vals {
		bits := math.Float64bits(v)
		if x := bits ^ prev; x < 1<<56 {
			w, k := uvarintWord(x)
			binary.LittleEndian.PutUint64(buf[p:], w)
			p += k
		} else {
			p += binary.PutUvarint(buf[p:], x)
		}
		prev = bits
	}
	e.prevBits = prev
	return buf[:p]
}

// zigzag maps a signed varint's value to the unsigned one
// binary.AppendVarint writes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// putUvarint writes the uvarint of x at buf[p:], as binary.PutUvarint
// would, and returns the position after it: one of up to 56 bits with one
// 8-byte store.
func putUvarint(buf []byte, p int, x uint64) int {
	if x < 1<<56 {
		w, n := uvarintWord(x)
		binary.LittleEndian.PutUint64(buf[p:], w)
		return p + n
	}
	return p + binary.PutUvarint(buf[p:], x)
}

// uvarintWord returns the uvarint of x < 2⁵⁶, byte for byte what
// binary.PutUvarint writes, as the eight bytes a little-endian store of
// the word puts down (zeros past its end), and its length in bytes: the
// inverse of uvarint8. Three mask-and-shift steps spread x's 7-bit
// groups a byte apart, and every byte ahead of the last gets its
// continuation bit.
func uvarintWord(x uint64) (uint64, int) {
	w := x&0x000000000fffffff | (x&0x00fffffff0000000)<<4
	w = w&0x00003fff00003fff | (w&0x0fffc0000fffc000)<<2
	w = w&0x007f007f007f007f | (w&0x3f803f803f803f80)<<1
	n := max(1, (bits.Len64(w)+7)/8)
	return w | 0x8080808080808080&(1<<(8*n-8)-1), n
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
	// Scale and Max are a version 3 trace's grid, both at most 2²⁰: every
	// value is float64(k)/Scale for a level 0 ≤ k ≤ Max. 0 and 0 for none.
	Scale, Max int
}

// Epoch reports the time sample offsets count from.
func (h Header) Epoch() time.Time {
	return time.Unix(h.EpochSec, int64(h.EpochNsec)).UTC()
}

// DecodeHeader parses the header of a binary trace of any version and
// returns it with the payload bytes that follow it.
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
	if h.Version < BinaryV1 || h.Version > BinaryV3 {
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
	// A version 1 sample is at least 9 bytes, a version 2 sample at least
	// 2 and a version 3 one 1, its value: a count the payload cannot hold
	// is refused before anything is sized from it.
	minSample := [...]int{BinaryV1: 9, BinaryV2: 2, BinaryV3: 1}[h.Version]
	if h.Version == BinaryV3 {
		scale, k := binary.Uvarint(data[p:])
		if k <= 0 {
			return h, nil, varintError("grid scale", k)
		}
		p += k
		max, k := binary.Uvarint(data[p:])
		if k <= 0 {
			return h, nil, varintError("grid max", k)
		}
		p += k
		if (scale == 0) != (max == 0) || scale > maxGrid || max > maxGrid {
			return h, nil, fmt.Errorf("trace: bad grid: scale %d, max %d (both 0, or both in 1..%d)", scale, max, maxGrid)
		}
		h.Scale, h.Max = int(scale), int(max)
	}
	payload = data[p:]
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

// Decoder takes apart the payload of one binary trace a run at a time,
// into columns its caller owns: Next fills them with one version 2 or 3
// chunk (its timestamp column in one loop, then its value column in
// another), or with as many version 1 records as they hold. A steady
// version 3 chunk's offsets after its second are filled by adding the
// period, checked once for the chunk; a level is checked to lie within
// the grid, and becomes float64(k)/Scale. DecodeBinary runs the same
// chunk body straight into a Series' storage: a level stays a level, and
// a steady chunk fills no offsets, its first two giving the rest.
// Offsets come out counted from the first sample, whose time Start
// reports. Every check holds on every run — chunk bounds, EOF, varint
// overflow, offsets that do not decrease and stay within an int64 of the
// first — and a trace with bytes past its last stated sample is refused
// with a *TrailingBytesError. What earlier runs returned is to be
// discarded once an error is found.
type Decoder struct {
	h       Header
	payload []byte
	p, read int
	// first is the first sample's offset from the header epoch; the
	// predictors after it run across chunks.
	first, prevT, prevDelta int64
	prevBits                uint64
	prevK                   int64 // the last level, on a version 3 grid
}

// Decoder returns a decoder over the payload DecodeHeader returned with h.
func (h Header) Decoder(payload []byte) Decoder {
	return Decoder{h: h, payload: payload}
}

// TrailingBytesError reports bytes after a trace's last stated sample:
// its count is wrong, or it runs into another artifact. Either way the
// bytes are not the trace that was written, and a shorter one is not
// made of them.
type TrailingBytesError struct {
	Count int // the samples stated, all decoded
	Extra int // the bytes after the last of them
}

func (e *TrailingBytesError) Error() string {
	return fmt.Sprintf("trace: %d bytes past the last sample (%d stated)", e.Extra, e.Count)
}

// Start reports the first sample's wall-clock time, once Next has
// returned it.
func (d *Decoder) Start() time.Time {
	return d.h.Epoch().Add(time.Duration(d.first))
}

// Next decodes the next run into offs and vals and returns its length;
// 0 with a nil error is the end of the trace. The columns must hold
// min(Count − the samples read, samples.ChunkLen) samples, a version 2
// or 3 chunk's most.
func (d *Decoder) Next(offs []int64, vals []float64) (int, error) {
	return d.NextLevels(offs, vals, nil)
}

// NextLevels is Next that, on a grid (Scale > 0) and with ks not nil,
// also writes each value's level into ks, beside its value: for a caller
// that counts levels (internal/analytics) and folds values.
func (d *Decoder) NextLevels(offs []int64, vals []float64, ks []uint32) (int, error) {
	switch {
	case d.read < d.h.Count && d.h.Version == BinaryV1:
		return d.nextV1(offs, vals)
	case d.read < d.h.Count:
		n, steady, err := d.chunkHead()
		if err == nil {
			err = d.chunk(n, steady, offs, vals, ks)
		}
		if err != nil {
			return 0, err
		}
		return n, nil
	case d.p < len(d.payload):
		return 0, &TrailingBytesError{Count: d.h.Count, Extra: len(d.payload) - d.p}
	}
	return 0, nil
}

func (d *Decoder) nextV1(offs []int64, vals []float64) (int, error) {
	payload, p := d.payload, d.p
	first, prevT := d.first, d.prevT
	n := min(len(offs), d.h.Count-d.read)
	for i := range n {
		off, k := binary.Varint(payload[p:])
		if k <= 0 {
			return 0, varintError(fmt.Sprintf("sample %d", d.read+i), k)
		}
		p += k
		if len(payload)-p < 8 {
			return 0, fmt.Errorf("trace: sample %d: %w", d.read+i, io.ErrUnexpectedEOF)
		}
		bits := binary.LittleEndian.Uint64(payload[p:])
		p += 8
		if d.read+i == 0 {
			first = off
		} else if off < prevT || off-first < 0 {
			return 0, orderError(d.read+i, off, prevT, first)
		}
		prevT = off
		offs[i], vals[i] = off-first, math.Float64frombits(bits)
	}
	d.p, d.read, d.first, d.prevT = p, d.read+n, first, prevT
	return n, nil
}

// chunkHead decodes the head of the next version 2 or 3 chunk: its
// length, and whether it is steady (a version 3 chunk of 3 or more
// samples marked so).
func (d *Decoder) chunkHead() (n int, steady bool, err error) {
	n64, k := binary.Uvarint(d.payload[d.p:])
	if k <= 0 {
		return 0, false, varintError("chunk header", k)
	}
	if d.h.Version == BinaryV3 {
		n64, steady = n64>>1, n64&1 == 1
	}
	if n64 == 0 || n64 > samples.ChunkLen || n64 > uint64(d.h.Count-d.read) {
		return 0, false, fmt.Errorf("trace: bad chunk length %d (%d of %d samples read)", n64, d.read, d.h.Count)
	}
	d.p += k
	return int(n64), steady && n64 > 2, nil
}

// chunk decodes the body of the chunk chunkHead stated, n samples,
// steady or not: its offsets into offs, which holds n of them or, for a
// steady chunk, only its first two when offs has room for no more; its
// values into vals unless vals is nil, and on a grid their levels into ks
// unless ks is nil.
func (d *Decoder) chunk(n int, steady bool, offs []int64, vals []float64, ks []uint32) error {
	payload, p := d.payload, d.p
	var k int

	// The timestamp column, of a steady chunk its first two samples'. A
	// steady sampling period is a zero delta-of-delta, one byte; any
	// one-byte value skips binary.Varint.
	var ts []int64
	if steady {
		ts = offs[:2]
	} else {
		ts = offs[:n]
	}
	first, prevT, prevDelta := d.first, d.prevT, d.prevDelta
	for i := range ts {
		if p == len(payload) {
			return fmt.Errorf("trace: timestamps of the chunk at sample %d: %w", d.read, io.ErrUnexpectedEOF)
		}
		var dod int64
		if b := payload[p]; b < 0x80 {
			dod = int64(b>>1) ^ -int64(b&1) // zigzag
			p++
		} else {
			if dod, k = binary.Varint(payload[p:]); k <= 0 {
				return varintError(fmt.Sprintf("timestamp %d", d.read+i), k)
			}
			p += k
		}
		prevDelta += dod
		off := prevT + prevDelta
		if d.read+i == 0 {
			first = off
		} else if prevDelta < 0 || off < prevT || off-first < 0 {
			return orderError(d.read+i, off, prevT, first)
		}
		prevT = off
		offs[i] = off - first
	}
	if steady {
		// The rest of a steady chunk, each sample prevDelta after the one
		// before: a step the second sample's check found not negative.
		// The checks each would make hold for all when the last offset,
		// and its distance from the first, fit an int64; room is what the
		// larger of the two (the second sample's) may still grow by.
		o := offs[1]
		room := math.MaxInt64 - max(prevT, o)
		if prevDelta > 0 && int64(n-2) > room/prevDelta {
			j := room/prevDelta + 1 // the first step past it
			return orderError(d.read+1+int(j), prevT+j*prevDelta, prevT+(j-1)*prevDelta, first)
		}
		if len(offs) >= n {
			for i := 2; i < n; i++ {
				o += prevDelta
				offs[i] = o
			}
		}
		prevT += int64(n-2) * prevDelta
	}

	if d.h.Scale > 0 {
		// Level deltas: a one-byte one skips binary.Varint.
		scale, top, level := float64(d.h.Scale), uint64(d.h.Max), d.prevK
		if ks != nil {
			ks = ks[:n]
		}
		if vals != nil {
			vals = vals[:n]
		}
		for i := range n {
			var dk int64
			if p < len(payload) && payload[p] < 0x80 {
				b := payload[p]
				dk = int64(b>>1) ^ -int64(b&1) // zigzag
				p++
			} else {
				if dk, k = binary.Varint(payload[p:]); k <= 0 {
					return varintError(fmt.Sprintf("value %d", d.read+i), k)
				}
				p += k
			}
			level += dk
			if uint64(level) > top {
				return fmt.Errorf("trace: value %d: level %d outside the grid's 0..%d", d.read+i, level, top)
			}
			if ks != nil {
				ks[i] = uint32(level)
			}
			if vals != nil {
				vals[i] = float64(level) / scale
			}
		}
		d.prevK = level
	} else {
		// XORed values: a varint of up to 8 bytes is taken from one 8-byte
		// load; a longer one, or one in the payload's last 7 bytes, goes
		// through binary.Uvarint.
		prev := d.prevBits
		vals = vals[:n]
		for i := range vals {
			x, k := uint64(0), 9
			if len(payload)-p >= 8 {
				x, k = uvarint8(binary.LittleEndian.Uint64(payload[p:]))
			}
			if k > 8 {
				if x, k = binary.Uvarint(payload[p:]); k <= 0 {
					return varintError(fmt.Sprintf("value %d", d.read+i), k)
				}
			}
			p += k
			prev ^= x
			vals[i] = math.Float64frombits(prev)
		}
		d.prevBits = prev
	}
	d.p, d.read = p, d.read+n
	d.first, d.prevT, d.prevDelta = first, prevT, prevDelta
	return nil
}

// uvarint8 decodes the uvarint at the start of w, eight payload bytes
// loaded little-endian, and returns it with its length in bytes — 9 when
// it is longer than w. The first byte with its top bit clear ends it;
// the bytes up to it keep their low seven bits, which three
// mask-and-shift steps pack together.
func uvarint8(w uint64) (uint64, int) {
	stops := ^w & 0x8080808080808080
	end := stops & -stops // the stop bit of the varint's last byte; 0 if w holds none
	w &= (end | (end - 1)) & 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | (w&0x7f007f007f007f00)>>1
	w = w&0x00003fff00003fff | (w&0x3fff00003fff0000)>>2
	w = w&0x000000000fffffff | (w&0x0fffffff00000000)>>4
	return w, bits.TrailingZeros64(stops)/8 + 1
}

// orderError reports sample i's offset as behind its predecessor's, or
// further from the first than an int64 holds (which is also how a
// wrapped-around sum shows).
func orderError(i int, off, prev, first int64) error {
	return fmt.Errorf("trace: sample %d: out-of-order timestamp offset %d (previous %d, first %d)", i, off, prev, first)
}

// ReadBinary decodes a series written by WriteBinary or EncodeBinary,
// accepting every format version. It reads r to its end.
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
// The samples are decoded a chunk at a time straight into the free room
// of the series' tail chunk (samples.Series.Grow): on a grid as levels,
// a steady chunk as its first offset and step, any other's offsets
// through one column reused from chunk to chunk. Nothing is folded until
// the summary is read. A version 1 trace's records, and a chunk that does
// not fit the room left — one cut across this package's chunk boundaries,
// which neither encoder here writes — are decoded aside, levels as
// levels, and stored through the room of the tail chunk and the next. A
// version 3 trace on a grid decodes to a NewGridSeries of that grid, so
// that writing it again gives back data.
func DecodeBinary(data []byte) (*Series, error) {
	h, payload, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	var s *Series
	if h.Scale > 0 { // within 1..maxGrid, as DecodeHeader checked
		s = NewGridSeries(string(h.Name), string(h.Unit), h.Scale, h.Max)
	} else {
		s = NewSeries(string(h.Name), string(h.Unit))
	}
	d := h.Decoder(payload)
	offs := make([]int64, samples.ChunkLen)
	var asideV []float64
	var asideK []uint32
	for s.data.Len() < h.Count {
		vals, ks := s.data.Grow()
		n, steady := 0, false
		if h.Version != BinaryV1 {
			if n, steady, err = d.chunkHead(); err != nil {
				return nil, err
			}
		}
		switch {
		case h.Version == BinaryV1 || n > len(vals)+len(ks):
			if h.Scale > 0 && asideK == nil {
				asideK = make([]uint32, samples.ChunkLen)
			} else if h.Scale == 0 && asideV == nil {
				asideV = make([]float64, samples.ChunkLen)
			}
			if h.Version == BinaryV1 {
				n, err = d.Next(offs, asideV)
			} else {
				err = d.chunk(n, steady, offs, asideV, asideK)
			}
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; { // the values, or on a grid the levels
				vals, ks := s.data.Grow()
				m := 0
				if h.Scale > 0 {
					m = copy(ks, asideK[i:n])
				} else {
					m = copy(vals, asideV[i:n])
				}
				s.data.Commit(m, offs[i:])
				i += m
			}
		case steady:
			var two [2]int64
			if err := d.chunk(n, true, two[:], vals, ks); err != nil {
				return nil, err
			}
			s.data.CommitSteady(n, two[0], two[1]-two[0])
		default:
			if err := d.chunk(n, false, offs, vals, ks); err != nil {
				return nil, err
			}
			s.data.Commit(n, offs)
		}
	}
	if _, err := d.Next(nil, nil); err != nil { // bytes past the last sample
		return nil, err
	}
	if h.Count > 0 {
		s.epoch, s.hasEpoch = d.Start(), true
		s.lastOff = s.data.T(h.Count - 1)
	}
	return s, nil
}
