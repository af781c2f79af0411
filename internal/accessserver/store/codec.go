package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"batterylab/internal/api"
)

// The record codec. The store writes ONE record format — the binary TLV
// payload below — and reads two: TLV, and the v1 JSON object servers
// wrote before it (a JSON payload starts with '{', a TLV payload with
// recBinaryMarker, so scanRecords dispatches per frame and old or mixed
// logs replay with no conversion). The WAL's uvarint|CRC32|payload
// framing around the payload is store.go's.
//
// A TLV body is protobuf-style: each field is keyed by
// uvarint(fieldNum<<3 | wireType) with wire types
//
//	0  varint  (zigzag-encoded signed ints; bools and enums as-is)
//	1  fixed64 (float64 bits, little-endian)
//	2  bytes   (strings, nested messages, repeated scalars)
//
// # Where a message's layout lives
//
// Every persisted message has exactly one field listing — a
// `…Fields(c, m)` function further down — and both directions are
// derived from it: each line names a field number, a kind and the
// struct member, and the codec walking the listing is either writing or
// reading. Adding a field is one line there (plus the struct member).
//
// The listing's ORDER IS PART OF THE FORMAT: writing emits fields in
// listing order, and equal records must keep encoding to equal bytes
// (the v2wal golden fixture pins them, TestGoldenV2WAL). So
// listings are APPEND ONLY — never renumber, reorder or reuse a number.
// Reading does not depend on order: a reader claims the pending key
// wherever the listing names it, so our own bytes decode in one pass
// over the listing and any other order just takes more passes. Zero
// values are omitted, a repeated scalar or nested message keeps the last
// occurrence, and unknown fields (and known numbers under a foreign
// wire type) are skipped — the additive-evolution property the JSON
// codec had. Every read is bounds-checked, so a corrupt payload fails
// the scan instead of panicking replay.

// recBinaryMarker is the first payload byte of a binary record frame.
// JSON payloads always start with '{' (0x7B); 0x02 can never begin a
// JSON document, so one byte discriminates the codecs.
const recBinaryMarker = 0x02

// Wire types.
const (
	wVarint  = 0
	wFixed64 = 1
	wBytes   = 2
)

// typeByIndex gives every record type a stable 1-based enum value.
// APPEND ONLY — reordering would re-type every record already on disk.
// Every Type constant is listed (TestEveryTypeIsTabled), so appending a
// record of a declared type cannot fail on the table.
var typeByIndex = []Type{
	TUserAdded, TUserRemoved, TJobPut, TJobDeleted,
	TNodeMonitored, TNodeOwner, TNodeDrain, TNodeRemoved, TNodeHostingFlush,
	TBuildQueued, TBuildStarted, TBuildCancelWant, TBuildFailover,
	TBuildFinished, TBuildExpired, TCampaign, TCampaignExpired, TLedger,
	TPeerJoined, TPeerLeft,
}

// stateByIndex maps build-state strings to a 1-based enum. APPEND ONLY.
// It covers every string BuildState.String can return (accessserver's
// TestEveryBuildStateIsTabled).
var stateByIndex = []string{
	"queued", "running", "success", "failure", "aborted", "expired",
}

var (
	indexByType  = indexOf(typeByIndex)
	indexByState = indexOf(stateByIndex)
)

func indexOf[S ~string](names []S) map[S]uint64 {
	m := make(map[S]uint64, len(names))
	for i, s := range names {
		m[s] = uint64(i + 1)
	}
	return m
}

// codec walks a message's field listing in one of two directions.
// Writing, b is the output and every listing line appends its field if
// the member is non-zero. Reading, b is the payload, [off, end) the
// message being walked and (field, wire) its pending key, which the
// listing line naming it claims: it stores the value and loads the next
// key. A failure latches err and ends the walk.
type codec struct {
	reading     bool
	b           []byte
	off, end    int
	field, wire int // field < 0: message exhausted, or err set
	err         error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.field = -1
}

// --- writing --------------------------------------------------------

func (c *codec) key(n, wire int) {
	c.b = binary.AppendUvarint(c.b, uint64(n)<<3|uint64(wire))
}

func appendString[S string | []byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// closeBody turns the bytes written since at into a length-delimited
// value by sliding the length prefix in front of them: nested messages
// are written in place, with no buffer of their own.
func (c *codec) closeBody(at int) {
	n := len(c.b) - at
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	c.b = append(c.b, pre[:k]...)
	copy(c.b[at+k:], c.b[at:at+n])
	copy(c.b[at:], pre[:k])
}

// --- reading --------------------------------------------------------

func (c *codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:c.end])
	if n <= 0 {
		c.fail("store: truncated varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *codec) svarint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (c *codec) fixed64() float64 {
	if c.end-c.off < 8 {
		c.fail("store: truncated fixed64 at offset %d", c.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

func (c *codec) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(c.end-c.off) {
		c.fail("store: bytes field length %d overruns payload", n)
		return nil
	}
	p := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return p
}

// next loads the pending key; field is -1 at the end of the message.
func (c *codec) next() {
	c.field = -1
	if c.err != nil || c.off >= c.end {
		return
	}
	if k := c.uvarint(); c.err == nil {
		c.field, c.wire = int(k>>3), int(k&7)
	}
}

// pending reports whether the pending key is field n with the wire type
// its kind is written under. Only then does a listing line claim it.
func (c *codec) pending(n, wire int) bool { return c.field == n && c.wire == wire }

// skip consumes the pending key's value, which no listing line claimed.
func (c *codec) skip() {
	switch c.wire {
	case wVarint:
		c.uvarint()
	case wFixed64:
		c.fixed64()
	case wBytes:
		c.bytes()
	default:
		c.fail("store: unknown wire type %d", c.wire)
	}
}

// enterBody narrows the walk to the length-delimited value at the
// cursor and returns the enclosing message's end for leaveBody.
func (c *codec) enterBody() (outer int) {
	outer = c.end
	if n := c.uvarint(); n > uint64(c.end-c.off) {
		c.fail("store: nested field length %d overruns payload", n)
	} else if c.err == nil {
		c.end = c.off + int(n)
	}
	return outer
}

func (c *codec) leaveBody(outer int) {
	if c.err == nil {
		c.off = c.end
	}
	c.end = outer
	c.next()
}

// read decodes the message [off, end) into m: one pass over the listing
// claims every field that arrives in listing order, a pass that claims
// nothing skips the pending key as unknown. The listing always runs at
// least once, so kinds with a non-zero "absent" value can set it.
func read[T any](c *codec, m *T, fields func(*codec, *T)) {
	c.next()
	for {
		at := c.off
		fields(c, m)
		if c.field < 0 {
			return
		}
		if c.off == at {
			c.skip()
			c.next()
		}
	}
}

// --- field kinds (each line of a listing is one of these) ------------

// str is a string, omitted when empty.
func (c *codec) str(n int, p *string) {
	if !c.reading {
		if *p != "" {
			c.key(n, wBytes)
			c.b = appendString(c.b, *p)
		}
	} else if c.pending(n, wBytes) {
		*p = string(c.bytes())
		c.next()
	}
}

// legacyStr is a string field no writer emits any more (the raw-string
// fallbacks of the state enums); old logs may carry it, so it stays
// readable.
func (c *codec) legacyStr(n int, p *string) {
	if c.reading {
		c.str(n, p)
	}
}

// flag is a bool, omitted when false.
func (c *codec) flag(n int, p *bool) {
	if !c.reading {
		if *p {
			c.key(n, wVarint)
			c.b = append(c.b, 1)
		}
	} else if c.pending(n, wVarint) {
		*p = c.uvarint() != 0
		c.next()
	}
}

// int64 is a zigzag-encoded signed integer, omitted when zero.
func (c *codec) int64(n int, p *int64) {
	if !c.reading {
		if *p != 0 {
			c.key(n, wVarint)
			c.b = binary.AppendUvarint(c.b, zigzag(*p))
		}
	} else if c.pending(n, wVarint) {
		*p = c.svarint()
		c.next()
	}
}

func (c *codec) int(n int, p *int) {
	v := int64(*p)
	c.int64(n, &v)
	*p = int(v)
}

// float is a fixed64 float64, omitted when +0: a -0 keeps its sign.
func (c *codec) float(n int, p *float64) {
	if !c.reading {
		if math.Float64bits(*p) != 0 {
			c.key(n, wFixed64)
			c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		}
	} else if c.pending(n, wFixed64) {
		*p = c.fixed64()
		c.next()
	}
}

// enum is a string drawn from an append-only table, stored as its
// 1-based index and omitted when empty. A value outside the table is an
// error in both directions: there is no second format to fall back to.
func enum[S ~string](c *codec, n int, p *S, names []S, index map[S]uint64) {
	if !c.reading {
		if *p == "" {
			return
		}
		idx, ok := index[*p]
		if !ok {
			c.fail("store: field %d: %q is not a tabled value", n, string(*p))
			return
		}
		c.key(n, wVarint)
		c.b = binary.AppendUvarint(c.b, idx)
	} else if c.pending(n, wVarint) {
		idx := c.uvarint()
		if idx == 0 || idx > uint64(len(names)) {
			c.fail("store: field %d: unknown enum value %d", n, idx)
			return
		}
		*p = names[idx-1]
		c.next()
	}
}

// nested is an optional message behind a pointer: absent when nil,
// present (even if empty) otherwise. A repeat replaces the earlier one.
func nested[T any](c *codec, n int, p **T, fields func(*codec, *T)) {
	switch {
	case !c.reading && *p != nil:
		c.key(n, wBytes)
	case c.reading && c.pending(n, wBytes):
		*p = new(T)
	default:
		return
	}
	body(c, *p, fields)
}

// embedded is a message held by value, omitted when it is all zero.
func embedded[T comparable](c *codec, n int, p *T, fields func(*codec, *T)) {
	var zero T
	switch {
	case !c.reading && *p != zero:
		c.key(n, wBytes)
	case c.reading && c.pending(n, wBytes):
		*p = zero
	default:
		return
	}
	body(c, p, fields)
}

// body walks m as the length-delimited value of the key just written or
// claimed.
func body[T any](c *codec, m *T, fields func(*codec, *T)) {
	if !c.reading {
		at := len(c.b)
		fields(c, m)
		c.closeBody(at)
		return
	}
	outer := c.enterBody()
	read(c, m, fields)
	c.leaveBody(outer)
}

// strs is a repeated string: one field per element, appended in arrival
// order on read.
func (c *codec) strs(n int, p *[]string) {
	if !c.reading {
		for _, s := range *p {
			c.key(n, wBytes)
			c.b = appendString(c.b, s)
		}
		return
	}
	for c.pending(n, wBytes) {
		*p = append(*p, string(c.bytes()))
		c.next()
	}
}

// ids is a list of ints packed into one bytes field: count, then zigzag
// varints. Always written, even when empty, and an absent field reads
// as an empty list — CampaignRec.Builds marshals as [] in JSON, never
// null.
func (c *codec) ids(n int, p *[]int) {
	if !c.reading {
		c.key(n, wBytes)
		at := len(c.b)
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
		for _, id := range *p {
			c.b = binary.AppendUvarint(c.b, zigzag(int64(id)))
		}
		c.closeBody(at)
		return
	}
	if *p == nil {
		*p = []int{}
	}
	if !c.pending(n, wBytes) {
		return
	}
	outer := c.enterBody()
	if count := c.uvarint(); count > uint64(c.end-c.off) { // each id is ≥1 byte
		c.fail("store: id count %d overruns field", count)
	} else {
		*p = make([]int, 0, count)
		for i := uint64(0); i < count && c.err == nil; i++ {
			*p = append(*p, int(c.svarint()))
		}
	}
	c.leaveBody(outer)
}

// params is a workload's parameter map (see encodeParams), omitted when
// empty.
func (c *codec) params(n int, p *api.Params) {
	if !c.reading {
		if len(*p) == 0 {
			return
		}
		c.key(n, wBytes)
		at := len(c.b)
		var err error
		if c.b, err = encodeParams(c.b, *p); err != nil {
			c.fail("%w", err)
		}
		c.closeBody(at)
	} else if c.pending(n, wBytes) {
		var err error
		if *p, err = decodeParams(c.bytes()); err != nil {
			c.fail("%w", err)
		}
		c.next()
	}
}

// --- the messages ---------------------------------------------------
//
// One listing per message; see the header for the rules. Field numbers
// 3–6 of JobRec (the closure-job constraints) and the legacyStr fields
// are retired: still in old logs, never written again, never reused.

func recordFields(c *codec, r *Record) {
	enum(c, 1, &r.T, typeByIndex, indexByType)
	nested(c, 2, &r.User, userFields)
	c.str(3, &r.Name)
	nested(c, 4, &r.Job, jobFields)
	nested(c, 5, &r.Node, nodeFields)
	c.str(6, &r.Owner)
	c.flag(7, &r.Draining)
	nested(c, 8, &r.Build, buildFields)
	c.int(9, &r.BuildID)
	c.str(10, &r.NodeName)
	c.int(11, &r.Attempt)
	c.int(12, &r.Retries)
	c.str(13, &r.Reason)
	enum(c, 23, &r.State, stateByIndex, indexByState)
	c.legacyStr(14, &r.State)
	c.str(15, &r.Err)
	c.flag(16, &r.Canceled)
	c.flag(17, &r.NodeLost)
	nested(c, 18, &r.Summary, summaryFields)
	c.int64(19, &r.AtNS)
	nested(c, 20, &r.Campaign, campaignFields)
	c.int(21, &r.CampaignID)
	nested(c, 22, &r.Entry, ledgerFields)
	nested(c, 24, &r.Peer, peerFields)
}

func userFields(c *codec, u *UserRec) {
	c.str(1, &u.Name)
	c.int(2, &u.Role)
	c.str(3, &u.Token)
}

func jobFields(c *codec, j *JobRec) {
	c.str(1, &j.Name)
	c.str(2, &j.Owner)
	c.flag(7, &j.Approved)
	c.int(8, &j.Revision)
	nested(c, 9, &j.Spec, specFields)
}

func nodeFields(c *codec, n *NodeRec) {
	c.str(1, &n.Name)
	c.str(2, &n.Owner)
	c.flag(3, &n.Monitored)
	c.flag(4, &n.Draining)
	c.flag(5, &n.Removed)
	c.strs(6, &n.Devices)
	c.int64(7, &n.OwedHostingNS)
}

func buildFields(c *codec, b *BuildRec) {
	c.int(1, &b.ID)
	c.str(2, &b.Job)
	c.str(3, &b.Owner)
	c.int(4, &b.Campaign)
	nested(c, 5, &b.Spec, specFields)
	enum(c, 6, &b.State, stateByIndex, indexByState)
	c.legacyStr(18, &b.State)
	c.str(7, &b.Err)
	c.flag(8, &b.Canceled)
	c.flag(9, &b.NodeLost)
	c.str(10, &b.Node)
	c.int(11, &b.Attempts)
	c.int(12, &b.Retries)
	c.int64(13, &b.QueuedAtNS)
	c.int64(14, &b.StartedAtNS)
	c.int64(15, &b.FinishedAtNS)
	nested(c, 16, &b.Summary, summaryFields)
	c.int(17, &b.FeedEpoch)
}

func campaignFields(c *codec, m *CampaignRec) {
	c.int(1, &m.ID)
	c.int(2, &m.MaxConcurrent)
	c.ids(3, &m.Builds)
}

func ledgerFields(c *codec, l *LedgerRec) {
	c.str(1, &l.User)
	c.float(2, &l.Delta)
	c.str(3, &l.Reason)
}

func peerFields(c *codec, p *PeerRec) {
	c.str(1, &p.Name)
	c.str(2, &p.URL)
}

func specFields(c *codec, s *api.ExperimentSpec) {
	c.str(1, &s.Node)
	c.str(2, &s.Device)
	c.str(3, &s.Workload.Name)
	c.params(4, &s.Workload.Params)
	embedded(c, 5, &s.Monitor, monitorFields)
	c.flag(6, &s.Mirroring)
	c.str(7, &s.VPNLocation)
	c.str(8, &s.Transport)
	c.flag(9, &s.Constraints.RequireLowCPU)
	c.flag(10, &s.Constraints.AllowFallback)
	c.str(11, &s.HomeServer)
}

func monitorFields(c *codec, m *api.MonitorSpec) {
	c.int(1, &m.SampleRateHz)
	c.float(2, &m.VoltageV)
	c.int64(3, &m.CPUSamplePeriodMS)
	c.int64(4, &m.PaddingMS)
}

func summaryFields(c *codec, s *api.RunSummary) {
	c.int64(1, &s.Samples)
	c.float(2, &s.MeanMA)
	c.float(3, &s.P50MA)
	c.float(4, &s.P95MA)
	c.float(5, &s.EnergyMAH)
	c.int64(6, &s.DurationNS)
	c.int64(7, &s.MirrorUploadBytes)
	c.int64(8, &s.DroppedLiveSamples)
	c.float(9, (*float64)(&s.MinMA))
	c.float(10, (*float64)(&s.MaxMA))
	c.int64(11, &s.NaNs)
	c.flag(12, &s.Rollup)
	c.flag(13, &s.ExactQuantiles)
}

// encodeRecord renders rec as a binary frame payload: the marker byte
// plus the TLV body. A type or state outside its table is an error.
func encodeRecord(rec *Record) ([]byte, error) {
	if rec.T == "" {
		return nil, fmt.Errorf("store: record has no type")
	}
	c := &codec{b: append(make([]byte, 0, 128), recBinaryMarker)}
	recordFields(c, rec)
	return c.b, c.err
}

// decodeRecord parses a binary frame payload (including the leading
// marker byte) into rec, which must be zero. The codec is reset, so a
// scan reuses one.
func (c *codec) decodeRecord(payload []byte, rec *Record) error {
	if len(payload) == 0 || payload[0] != recBinaryMarker {
		return fmt.Errorf("store: not a binary record payload")
	}
	*c = codec{reading: true, b: payload, off: 1, end: len(payload)}
	read(c, rec, recordFields)
	if c.err != nil {
		return c.err
	}
	if rec.T == "" {
		return fmt.Errorf("store: binary record missing type field")
	}
	return nil
}

// --- api.Params -----------------------------------------------------

// Params value kinds. Scalars get compact fast paths; anything nested
// is a JSON blob for that one value.
const (
	pkNull   = 0
	pkFalse  = 1
	pkTrue   = 2
	pkFloat  = 3
	pkString = 4
	pkJSON   = 5
)

// encodeParams appends a params map to b as count | (key, kind, value)…
// with keys sorted, so equal maps encode to equal bytes — the
// determinism the golden WAL fixture and result-cache keys rely on.
// Numbers are stored as float64 to match what a JSON round trip of
// Params produces, keeping binary and JSON replays byte-identical.
func encodeParams(b []byte, p api.Params) ([]byte, error) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		switch v := p[k].(type) {
		case nil:
			b = append(b, pkNull)
		case bool:
			if v {
				b = append(b, pkTrue)
			} else {
				b = append(b, pkFalse)
			}
		case float64:
			b = binary.LittleEndian.AppendUint64(append(b, pkFloat), math.Float64bits(v))
		case int:
			b = binary.LittleEndian.AppendUint64(append(b, pkFloat), math.Float64bits(float64(v)))
		case string:
			b = appendString(append(b, pkString), v)
		default:
			blob, err := json.Marshal(v)
			if err != nil {
				return b, fmt.Errorf("store: encoding param %q: %w", k, err)
			}
			b = appendString(append(b, pkJSON), blob)
		}
	}
	return b, nil
}

func decodeParams(b []byte) (api.Params, error) {
	c := codec{b: b, end: len(b)}
	n := c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	if n > uint64(len(b)) { // each entry is ≥2 bytes
		return nil, fmt.Errorf("store: params count %d overruns payload", n)
	}
	p := make(api.Params, n)
	for i := uint64(0); i < n; i++ {
		key := string(c.bytes())
		if c.err != nil {
			return nil, c.err
		}
		if c.off >= c.end {
			return nil, fmt.Errorf("store: params entry %q missing kind", key)
		}
		kind := c.b[c.off]
		c.off++
		switch kind {
		case pkNull:
			p[key] = nil
		case pkFalse:
			p[key] = false
		case pkTrue:
			p[key] = true
		case pkFloat:
			p[key] = c.fixed64()
		case pkString:
			p[key] = string(c.bytes())
		case pkJSON:
			var v any
			if err := json.Unmarshal(c.bytes(), &v); err != nil {
				c.fail("store: params entry %q: %w", key, err)
			}
			p[key] = v
		default:
			return nil, fmt.Errorf("store: params entry %q has unknown kind %d", key, kind)
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	return p, nil
}
