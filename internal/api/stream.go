package api

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"batterylab/internal/trace"
)

// Sample streaming wire formats.
//
// GET /api/v1/builds/{id}/samples streams live power samples in one of
// two encodings, selected by ?format=:
//
//   - "binary" (the default): a sequence of length-prefixed frames,
//     each a uvarint byte count followed by one complete binary trace
//     (the v2 delta/XOR codec of internal/trace) holding the samples
//     that arrived since the previous frame. Framing keeps the codec's
//     self-contained header/count layout intact while letting the
//     server flush incrementally; a reader decodes frame-by-frame with
//     ReadSampleFrame.
//   - "ndjson": one SamplePoint JSON object per line, carrying the
//     live monitor-side summary fields the binary form omits.
//
// A frame is bytes, not a trace.Series: WriteSampleFrame encodes the
// points' two columns with trace.AppendBinary into one pooled buffer,
// and ReadSampleFrame decodes the received bytes straight into points
// with trace.DecodeHeader and Header.DecodeSamples — the same codec body
// a stored trace goes through, without the chunked store and streaming
// summary a Series maintains and no frame consumer reads.

// SampleStreamSeriesName is the series name sample frames carry.
const SampleStreamSeriesName = "live"

// SampleStreamUnit is the unit sample frames carry.
const SampleStreamUnit = "mA"

// maxFrameBytes bounds the length prefix a reader accepts.
const maxFrameBytes = 64 << 20

// frameScratch is the working memory of one frame being written or
// read: the frame's bytes, and the columns or points on the other side
// of the codec.
type frameScratch struct {
	buf  []byte
	offs []int64
	vals []float64
	pts  []SamplePoint
}

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// WriteSampleFrame encodes points as one length-prefixed binary trace
// frame and hands it to w in a single Write. Points must be in
// non-decreasing AtNS order and span less than 2⁶³ ns. Empty batches
// write nothing.
func WriteSampleFrame(w io.Writer, points []SamplePoint) error {
	if len(points) == 0 {
		return nil
	}
	sc := framePool.Get().(*frameScratch)
	defer framePool.Put(sc)
	if cap(sc.offs) < len(points) {
		sc.offs = make([]int64, len(points))
		sc.vals = make([]float64, len(points))
	}
	offs, vals := sc.offs[:len(points)], sc.vals[:len(points)]
	first, last := points[0].AtNS, points[0].AtNS
	for i := range points {
		p := &points[i]
		off := p.AtNS - first
		if p.AtNS < last || off < 0 {
			return fmt.Errorf("api: framing sample at %d: out of order or more than 2^63 ns after the first (first %d, previous %d)", p.AtNS, first, last)
		}
		last = p.AtNS
		offs[i], vals[i] = off, p.CurrentMA
	}
	// The length prefix goes right-aligned into room reserved ahead of
	// the body, so prefix and body leave in one Write.
	const room = binary.MaxVarintLen64
	var prefix [room]byte
	sc.buf = append(sc.buf[:0], prefix[:]...)
	sc.buf = trace.AppendBinary(sc.buf, SampleStreamSeriesName, SampleStreamUnit, time.Unix(0, first), offs, vals)
	n := binary.PutUvarint(prefix[:], uint64(len(sc.buf)-room))
	copy(sc.buf[room-n:], prefix[:n])
	_, err := w.Write(sc.buf[room-n:])
	return err
}

// ReadSampleFrame decodes the next frame from the stream, returning the
// points it carried. io.EOF at a frame boundary signals a clean end of
// stream.
func ReadSampleFrame(br *bufio.Reader) ([]SamplePoint, error) {
	sc := framePool.Get().(*frameScratch)
	defer framePool.Put(sc)
	frame, body, err := readFrame(br, sc.buf[:0])
	sc.buf = frame
	if err != nil {
		return nil, err
	}
	return decodeFrame(frame[body:], nil)
}

// ReadRawSampleFrame reads the next frame into raw's memory and checks
// it exactly as ReadSampleFrame does, but returns the frame's wire
// bytes (length prefix, then the body as received) and the number of
// points it carries instead of the points — what a relay forwards.
func ReadRawSampleFrame(br *bufio.Reader, raw []byte) (frame []byte, points int, err error) {
	frame, body, err := readFrame(br, raw[:0])
	if err != nil {
		return frame, 0, err
	}
	sc := framePool.Get().(*frameScratch)
	defer framePool.Put(sc)
	sc.pts, err = decodeFrame(frame[body:], sc.pts[:0])
	return frame, len(sc.pts), err
}

// readFrame appends the next frame — its length prefix, then its body,
// which starts at frame[body] — to dst. The buffer grows with the bytes
// that have arrived, at most doubling each step: a peer's length prefix
// alone allocates nothing.
func readFrame(br *bufio.Reader, dst []byte) (frame []byte, body int, err error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return dst, 0, io.EOF
		}
		return dst, 0, fmt.Errorf("api: reading frame length: %w", err)
	}
	if size > maxFrameBytes {
		return dst, 0, fmt.Errorf("api: sample frame of %d bytes exceeds the 64 MiB bound", size)
	}
	dst = binary.AppendUvarint(dst, size)
	body = len(dst)
	for need := int(size); need > 0; {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(need, max(len(dst), 4096)))
		}
		step := min(need, cap(dst)-len(dst))
		n, err := io.ReadFull(br, dst[len(dst):len(dst)+step])
		dst = dst[:len(dst)+n]
		if err != nil {
			return dst, body, fmt.Errorf("api: reading %d-byte frame: %w", size, err)
		}
		need -= step
	}
	return dst, body, nil
}

// The AtNS range: a decoded timestamp outside it has no SamplePoint.
var minAt, maxAt = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// decodeFrame decodes one frame body into dst[:0] (nil: a slice sized to
// the frame's count).
func decodeFrame(body []byte, dst []SamplePoint) ([]SamplePoint, error) {
	h, payload, err := trace.DecodeHeader(body)
	if err != nil {
		return dst, fmt.Errorf("api: decoding sample frame: %w", err)
	}
	dst = slices.Grow(dst, h.Count)
	// The first sample's time is worked out once, on time.Time, which
	// cannot overflow; every later one is that plus a non-negative
	// distance DecodeSamples has checked fits an int64.
	var first, base int64
	inRange := true
	err = h.DecodeSamples(payload, func(off int64, v float64) {
		if len(dst) == 0 {
			t0 := h.Epoch().Add(time.Duration(off))
			inRange = !t0.Before(minAt) && !t0.After(maxAt)
			first, base = off, t0.UnixNano()
		}
		at := base + (off - first)
		inRange = inRange && at >= base
		dst = append(dst, SamplePoint{AtNS: at, CurrentMA: v})
	})
	if err == nil && !inRange {
		err = errors.New("a timestamp falls outside the int64 nanosecond range")
	}
	if err != nil {
		return dst, fmt.Errorf("api: decoding sample frame: %w", err)
	}
	return dst, nil
}
