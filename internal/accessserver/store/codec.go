package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"batterylab/internal/api"
)

// Binary record frames. The WAL's uvarint|CRC32|payload framing is
// unchanged; what moved is the payload itself. A v1 payload is a JSON
// object and therefore starts with '{'; a v2 payload starts with the
// recBinaryMarker byte and holds a protobuf-style TLV body: each field
// is keyed by uvarint(fieldNum<<3 | wireType) with wire types
//
//	0  varint  (zigzag-encoded signed ints; bools and enums as-is)
//	1  fixed64 (float64 bits, little-endian)
//	2  bytes   (strings, nested messages, repeated scalars)
//
// Zero-valued fields are omitted, unknown fields are skipped on decode
// (the additive-evolution property the JSON codec had), and every
// decoder is bounds-checked so corrupt payloads fail the scan instead
// of panicking replay. The marker byte makes each frame self-describing:
// mixed v1/v2 logs — the upgrade case — replay with per-frame dispatch,
// no file-level flag day.
//
// Enum-coded strings (the record type and build states) carry a raw
// string fallback field for values outside the table, so the binary
// codec never silently narrows what the JSON codec could store.

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
var typeByIndex = []Type{
	TUserAdded, TUserRemoved, TJobPut, TJobDeleted,
	TNodeMonitored, TNodeOwner, TNodeDrain, TNodeRemoved, TNodeHostingFlush,
	TBuildQueued, TBuildStarted, TBuildCancelWant, TBuildFailover,
	TBuildFinished, TBuildExpired, TCampaign, TCampaignExpired, TLedger,
	TPeerJoined, TPeerLeft,
}

var indexByType = func() map[Type]uint64 {
	m := make(map[Type]uint64, len(typeByIndex))
	for i, t := range typeByIndex {
		m[t] = uint64(i + 1)
	}
	return m
}()

// stateByIndex maps build-state strings to a 1-based enum. APPEND ONLY.
var stateByIndex = []string{
	"queued", "running", "success", "failure", "aborted", "expired",
}

var indexByState = func() map[string]uint64 {
	m := make(map[string]uint64, len(stateByIndex))
	for i, s := range stateByIndex {
		m[s] = uint64(i + 1)
	}
	return m
}()

// enc builds a TLV message. The zero value is ready to use.
type enc struct {
	b []byte
}

func (e *enc) key(field, wire int) {
	e.b = binary.AppendUvarint(e.b, uint64(field)<<3|uint64(wire))
}

// uvarint emits a non-negative varint field, omitting zero.
func (e *enc) uvarint(field int, v uint64) {
	if v == 0 {
		return
	}
	e.key(field, wVarint)
	e.b = binary.AppendUvarint(e.b, v)
}

// svarint emits a zigzag-encoded signed field, omitting zero.
func (e *enc) svarint(field int, v int64) {
	if v == 0 {
		return
	}
	e.key(field, wVarint)
	e.b = binary.AppendUvarint(e.b, uint64(v<<1)^uint64(v>>63))
}

// boolean emits a true flag, omitting false.
func (e *enc) boolean(field int, v bool) {
	if !v {
		return
	}
	e.key(field, wVarint)
	e.b = append(e.b, 1)
}

// float emits a fixed64 float field, omitting zero.
func (e *enc) float(field int, v float64) {
	if v == 0 {
		return
	}
	e.key(field, wFixed64)
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// str emits a string field, omitting empty.
func (e *enc) str(field int, s string) {
	if s == "" {
		return
	}
	e.key(field, wBytes)
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// bytes emits a length-delimited field even when empty (presence of a
// nested message is meaningful: a nil pointer has no field at all).
func (e *enc) bytes(field int, p []byte) {
	e.key(field, wBytes)
	e.b = binary.AppendUvarint(e.b, uint64(len(p)))
	e.b = append(e.b, p...)
}

// state emits a build state as its enum when tabled, as a raw string in
// fallbackField otherwise.
func (e *enc) state(enumField, fallbackField int, s string) {
	if s == "" {
		return
	}
	if idx, ok := indexByState[s]; ok {
		e.uvarint(enumField, idx)
		return
	}
	e.str(fallbackField, s)
}

// dec walks a TLV message. Malformed input sets err and stops the walk;
// every read is bounds-checked.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// next reads the next field key. ok is false at a clean end or on error.
func (d *dec) next() (field int, wire int, ok bool) {
	if d.err != nil || d.off >= len(d.b) {
		return 0, 0, false
	}
	k := d.uvarint()
	if d.err != nil {
		return 0, 0, false
	}
	return int(k >> 3), int(k & 7), true
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("store: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) svarint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *dec) fixed64() float64 {
	if d.off+8 > len(d.b) {
		d.fail("store: truncated fixed64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("store: bytes field length %d overruns payload", n)
		return nil
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *dec) str() string { return string(d.bytes()) }

// skip consumes an unknown field's value.
func (d *dec) skip(wire int) {
	switch wire {
	case wVarint:
		d.uvarint()
	case wFixed64:
		if d.off+8 > len(d.b) {
			d.fail("store: truncated fixed64 at offset %d", d.off)
			return
		}
		d.off += 8
	case wBytes:
		d.bytes()
	default:
		d.fail("store: unknown wire type %d", wire)
	}
}

// --- Record ---------------------------------------------------------

// Record field numbers (APPEND ONLY).
const (
	rfType       = 1
	rfUser       = 2
	rfName       = 3
	rfJob        = 4
	rfNode       = 5
	rfOwner      = 6
	rfDraining   = 7
	rfBuild      = 8
	rfBuildID    = 9
	rfNodeName   = 10
	rfAttempt    = 11
	rfRetries    = 12
	rfReason     = 13
	rfStateStr   = 14
	rfErr        = 15
	rfCanceled   = 16
	rfNodeLost   = 17
	rfSummary    = 18
	rfAtNS       = 19
	rfCampaign   = 20
	rfCampaignID = 21
	rfEntry      = 22
	rfStateEnum  = 23
	rfPeer       = 24
)

// encodeRecord renders rec as a binary frame payload (marker byte plus
// TLV body). ok is false when rec's type is outside the enum table —
// the caller falls back to the JSON codec, which any replayer accepts.
func encodeRecord(rec Record) (payload []byte, ok bool, err error) {
	typeIdx, tabled := indexByType[rec.T]
	if !tabled {
		return nil, false, nil
	}
	e := &enc{b: []byte{recBinaryMarker}}
	e.uvarint(rfType, typeIdx)
	if rec.User != nil {
		e.bytes(rfUser, encodeUser(rec.User))
	}
	e.str(rfName, rec.Name)
	if rec.Job != nil {
		b, err := encodeJob(rec.Job)
		if err != nil {
			return nil, false, err
		}
		e.bytes(rfJob, b)
	}
	if rec.Node != nil {
		e.bytes(rfNode, encodeNode(rec.Node))
	}
	e.str(rfOwner, rec.Owner)
	e.boolean(rfDraining, rec.Draining)
	if rec.Build != nil {
		b, err := encodeBuild(rec.Build)
		if err != nil {
			return nil, false, err
		}
		e.bytes(rfBuild, b)
	}
	e.svarint(rfBuildID, int64(rec.BuildID))
	e.str(rfNodeName, rec.NodeName)
	e.svarint(rfAttempt, int64(rec.Attempt))
	e.svarint(rfRetries, int64(rec.Retries))
	e.str(rfReason, rec.Reason)
	e.state(rfStateEnum, rfStateStr, rec.State)
	e.str(rfErr, rec.Err)
	e.boolean(rfCanceled, rec.Canceled)
	e.boolean(rfNodeLost, rec.NodeLost)
	if rec.Summary != nil {
		e.bytes(rfSummary, encodeSummary(rec.Summary))
	}
	e.svarint(rfAtNS, rec.AtNS)
	if rec.Campaign != nil {
		e.bytes(rfCampaign, encodeCampaign(rec.Campaign))
	}
	e.svarint(rfCampaignID, int64(rec.CampaignID))
	if rec.Entry != nil {
		e.bytes(rfEntry, encodeLedger(rec.Entry))
	}
	if rec.Peer != nil {
		e.bytes(rfPeer, encodePeer(rec.Peer))
	}
	return e.b, true, nil
}

// decodeRecord parses a binary frame payload (including the leading
// marker byte).
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if len(payload) == 0 || payload[0] != recBinaryMarker {
		return rec, fmt.Errorf("store: not a binary record payload")
	}
	d := &dec{b: payload, off: 1}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case rfType:
			idx := d.uvarint()
			if idx == 0 || idx > uint64(len(typeByIndex)) {
				return rec, fmt.Errorf("store: unknown record type enum %d", idx)
			}
			rec.T = typeByIndex[idx-1]
		case rfUser:
			u, err := decodeUser(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.User = u
		case rfName:
			rec.Name = d.str()
		case rfJob:
			j, err := decodeJob(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Job = j
		case rfNode:
			n, err := decodeNode(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Node = n
		case rfOwner:
			rec.Owner = d.str()
		case rfDraining:
			rec.Draining = d.uvarint() != 0
		case rfBuild:
			b, err := decodeBuild(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Build = b
		case rfBuildID:
			rec.BuildID = int(d.svarint())
		case rfNodeName:
			rec.NodeName = d.str()
		case rfAttempt:
			rec.Attempt = int(d.svarint())
		case rfRetries:
			rec.Retries = int(d.svarint())
		case rfReason:
			rec.Reason = d.str()
		case rfStateStr:
			rec.State = d.str()
		case rfStateEnum:
			idx := d.uvarint()
			if idx == 0 || idx > uint64(len(stateByIndex)) {
				return rec, fmt.Errorf("store: unknown state enum %d", idx)
			}
			rec.State = stateByIndex[idx-1]
		case rfErr:
			rec.Err = d.str()
		case rfCanceled:
			rec.Canceled = d.uvarint() != 0
		case rfNodeLost:
			rec.NodeLost = d.uvarint() != 0
		case rfSummary:
			s, err := decodeSummary(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Summary = s
		case rfAtNS:
			rec.AtNS = d.svarint()
		case rfCampaign:
			c, err := decodeCampaign(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Campaign = c
		case rfCampaignID:
			rec.CampaignID = int(d.svarint())
		case rfEntry:
			l, err := decodeLedger(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Entry = l
		case rfPeer:
			p, err := decodePeer(d.bytes())
			if err != nil {
				return rec, err
			}
			rec.Peer = p
		default:
			d.skip(wire)
		}
	}
	if d.err != nil {
		return rec, d.err
	}
	if rec.T == "" {
		return rec, fmt.Errorf("store: binary record missing type field")
	}
	return rec, nil
}

// --- UserRec --------------------------------------------------------

func encodeUser(u *UserRec) []byte {
	e := &enc{}
	e.str(1, u.Name)
	e.svarint(2, int64(u.Role))
	e.str(3, u.Token)
	return e.b
}

func decodeUser(b []byte) (*UserRec, error) {
	u := &UserRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			u.Name = d.str()
		case 2:
			u.Role = int(d.svarint())
		case 3:
			u.Token = d.str()
		default:
			d.skip(wire)
		}
	}
	return u, d.err
}

// --- JobRec ---------------------------------------------------------

func encodeJob(j *JobRec) ([]byte, error) {
	e := &enc{}
	e.str(1, j.Name)
	e.str(2, j.Owner)
	e.str(3, j.Node)
	e.str(4, j.Device)
	e.boolean(5, j.RequireLowCPU)
	e.boolean(6, j.Fallback)
	e.boolean(7, j.Approved)
	e.svarint(8, int64(j.Revision))
	if j.Spec != nil {
		sb, err := encodeSpec(j.Spec)
		if err != nil {
			return nil, err
		}
		e.bytes(9, sb)
	}
	return e.b, nil
}

func decodeJob(b []byte) (*JobRec, error) {
	j := &JobRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			j.Name = d.str()
		case 2:
			j.Owner = d.str()
		case 3:
			j.Node = d.str()
		case 4:
			j.Device = d.str()
		case 5:
			j.RequireLowCPU = d.uvarint() != 0
		case 6:
			j.Fallback = d.uvarint() != 0
		case 7:
			j.Approved = d.uvarint() != 0
		case 8:
			j.Revision = int(d.svarint())
		case 9:
			s, err := decodeSpec(d.bytes())
			if err != nil {
				return nil, err
			}
			j.Spec = s
		default:
			d.skip(wire)
		}
	}
	return j, d.err
}

// --- NodeRec --------------------------------------------------------

func encodeNode(n *NodeRec) []byte {
	e := &enc{}
	e.str(1, n.Name)
	e.str(2, n.Owner)
	e.boolean(3, n.Monitored)
	e.boolean(4, n.Draining)
	e.boolean(5, n.Removed)
	for _, dev := range n.Devices {
		e.bytes(6, []byte(dev)) // repeated: one field per device
	}
	e.svarint(7, n.OwedHostingNS)
	return e.b
}

func decodeNode(b []byte) (*NodeRec, error) {
	n := &NodeRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			n.Name = d.str()
		case 2:
			n.Owner = d.str()
		case 3:
			n.Monitored = d.uvarint() != 0
		case 4:
			n.Draining = d.uvarint() != 0
		case 5:
			n.Removed = d.uvarint() != 0
		case 6:
			n.Devices = append(n.Devices, d.str())
		case 7:
			n.OwedHostingNS = d.svarint()
		default:
			d.skip(wire)
		}
	}
	return n, d.err
}

// --- BuildRec -------------------------------------------------------

func encodeBuild(b *BuildRec) ([]byte, error) {
	e := &enc{}
	e.svarint(1, int64(b.ID))
	e.str(2, b.Job)
	e.str(3, b.Owner)
	e.svarint(4, int64(b.Campaign))
	if b.Spec != nil {
		sb, err := encodeSpec(b.Spec)
		if err != nil {
			return nil, err
		}
		e.bytes(5, sb)
	}
	e.state(6, 18, b.State)
	e.str(7, b.Err)
	e.boolean(8, b.Canceled)
	e.boolean(9, b.NodeLost)
	e.str(10, b.Node)
	e.svarint(11, int64(b.Attempts))
	e.svarint(12, int64(b.Retries))
	e.svarint(13, b.QueuedAtNS)
	e.svarint(14, b.StartedAtNS)
	e.svarint(15, b.FinishedAtNS)
	if b.Summary != nil {
		e.bytes(16, encodeSummary(b.Summary))
	}
	e.svarint(17, int64(b.FeedEpoch))
	return e.b, nil
}

func decodeBuild(data []byte) (*BuildRec, error) {
	b := &BuildRec{}
	d := &dec{b: data}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			b.ID = int(d.svarint())
		case 2:
			b.Job = d.str()
		case 3:
			b.Owner = d.str()
		case 4:
			b.Campaign = int(d.svarint())
		case 5:
			s, err := decodeSpec(d.bytes())
			if err != nil {
				return nil, err
			}
			b.Spec = s
		case 6:
			idx := d.uvarint()
			if idx == 0 || idx > uint64(len(stateByIndex)) {
				return nil, fmt.Errorf("store: unknown state enum %d", idx)
			}
			b.State = stateByIndex[idx-1]
		case 7:
			b.Err = d.str()
		case 8:
			b.Canceled = d.uvarint() != 0
		case 9:
			b.NodeLost = d.uvarint() != 0
		case 10:
			b.Node = d.str()
		case 11:
			b.Attempts = int(d.svarint())
		case 12:
			b.Retries = int(d.svarint())
		case 13:
			b.QueuedAtNS = d.svarint()
		case 14:
			b.StartedAtNS = d.svarint()
		case 15:
			b.FinishedAtNS = d.svarint()
		case 16:
			s, err := decodeSummary(d.bytes())
			if err != nil {
				return nil, err
			}
			b.Summary = s
		case 17:
			b.FeedEpoch = int(d.svarint())
		case 18:
			b.State = d.str()
		default:
			d.skip(wire)
		}
	}
	return b, d.err
}

// --- CampaignRec ----------------------------------------------------

func encodeCampaign(c *CampaignRec) []byte {
	e := &enc{}
	e.svarint(1, int64(c.ID))
	e.svarint(2, int64(c.MaxConcurrent))
	// Builds packed into one bytes field: count, then delta-from-zero
	// zigzag varints. Present even when empty — CampaignRec.Builds
	// marshals as [] in JSON, never null.
	p := &enc{}
	p.b = binary.AppendUvarint(p.b, uint64(len(c.Builds)))
	for _, id := range c.Builds {
		p.b = binary.AppendUvarint(p.b, uint64(int64(id)<<1)^uint64(int64(id)>>63))
	}
	e.bytes(3, p.b)
	return e.b
}

func decodeCampaign(b []byte) (*CampaignRec, error) {
	c := &CampaignRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			c.ID = int(d.svarint())
		case 2:
			c.MaxConcurrent = int(d.svarint())
		case 3:
			p := &dec{b: d.bytes()}
			n := p.uvarint()
			if n > uint64(len(p.b)) { // each id is ≥1 byte
				d.fail("store: campaign build count %d overruns field", n)
				break
			}
			c.Builds = make([]int, 0, n)
			for i := uint64(0); i < n && p.err == nil; i++ {
				c.Builds = append(c.Builds, int(p.svarint()))
			}
			if p.err != nil {
				d.fail("%v", p.err)
			}
		default:
			d.skip(wire)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if c.Builds == nil {
		c.Builds = []int{}
	}
	return c, nil
}

// --- LedgerRec ------------------------------------------------------

func encodeLedger(l *LedgerRec) []byte {
	e := &enc{}
	e.str(1, l.User)
	e.float(2, l.Delta)
	e.str(3, l.Reason)
	return e.b
}

func decodeLedger(b []byte) (*LedgerRec, error) {
	l := &LedgerRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			l.User = d.str()
		case 2:
			l.Delta = d.fixed64()
		case 3:
			l.Reason = d.str()
		default:
			d.skip(wire)
		}
	}
	return l, d.err
}

// --- PeerRec --------------------------------------------------------

func encodePeer(p *PeerRec) []byte {
	e := &enc{}
	e.str(1, p.Name)
	e.str(2, p.URL)
	return e.b
}

func decodePeer(b []byte) (*PeerRec, error) {
	p := &PeerRec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			p.Name = d.str()
		case 2:
			p.URL = d.str()
		default:
			d.skip(wire)
		}
	}
	return p, d.err
}

// --- api.ExperimentSpec / MonitorSpec / ConstraintsSpec -------------

func encodeSpec(s *api.ExperimentSpec) ([]byte, error) {
	e := &enc{}
	e.str(1, s.Node)
	e.str(2, s.Device)
	e.str(3, s.Workload.Name)
	if len(s.Workload.Params) > 0 {
		pb, err := encodeParams(s.Workload.Params)
		if err != nil {
			return nil, err
		}
		e.bytes(4, pb)
	}
	if s.Monitor != (api.MonitorSpec{}) {
		e.bytes(5, encodeMonitor(s.Monitor))
	}
	e.boolean(6, s.Mirroring)
	e.str(7, s.VPNLocation)
	e.str(8, s.Transport)
	e.boolean(9, s.Constraints.RequireLowCPU)
	e.boolean(10, s.Constraints.AllowFallback)
	e.str(11, s.HomeServer)
	return e.b, nil
}

func decodeSpec(b []byte) (*api.ExperimentSpec, error) {
	s := &api.ExperimentSpec{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			s.Node = d.str()
		case 2:
			s.Device = d.str()
		case 3:
			s.Workload.Name = d.str()
		case 4:
			p, err := decodeParams(d.bytes())
			if err != nil {
				return nil, err
			}
			s.Workload.Params = p
		case 5:
			m, err := decodeMonitor(d.bytes())
			if err != nil {
				return nil, err
			}
			s.Monitor = m
		case 6:
			s.Mirroring = d.uvarint() != 0
		case 7:
			s.VPNLocation = d.str()
		case 8:
			s.Transport = d.str()
		case 9:
			s.Constraints.RequireLowCPU = d.uvarint() != 0
		case 10:
			s.Constraints.AllowFallback = d.uvarint() != 0
		case 11:
			s.HomeServer = d.str()
		default:
			d.skip(wire)
		}
	}
	return s, d.err
}

func encodeMonitor(m api.MonitorSpec) []byte {
	e := &enc{}
	e.svarint(1, int64(m.SampleRateHz))
	e.float(2, m.VoltageV)
	e.svarint(3, m.CPUSamplePeriodMS)
	e.svarint(4, m.PaddingMS)
	return e.b
}

func decodeMonitor(b []byte) (api.MonitorSpec, error) {
	var m api.MonitorSpec
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			m.SampleRateHz = int(d.svarint())
		case 2:
			m.VoltageV = d.fixed64()
		case 3:
			m.CPUSamplePeriodMS = d.svarint()
		case 4:
			m.PaddingMS = d.svarint()
		default:
			d.skip(wire)
		}
	}
	return m, d.err
}

// --- api.RunSummary -------------------------------------------------

func encodeSummary(s *api.RunSummary) []byte {
	e := &enc{}
	e.svarint(1, s.Samples)
	e.float(2, s.MeanMA)
	e.float(3, s.P50MA)
	e.float(4, s.P95MA)
	e.float(5, s.EnergyMAH)
	e.svarint(6, s.DurationNS)
	e.svarint(7, s.MirrorUploadBytes)
	e.svarint(8, s.DroppedLiveSamples)
	return e.b
}

func decodeSummary(b []byte) (*api.RunSummary, error) {
	s := &api.RunSummary{}
	d := &dec{b: b}
	for {
		field, wire, ok := d.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			s.Samples = d.svarint()
		case 2:
			s.MeanMA = d.fixed64()
		case 3:
			s.P50MA = d.fixed64()
		case 4:
			s.P95MA = d.fixed64()
		case 5:
			s.EnergyMAH = d.fixed64()
		case 6:
			s.DurationNS = d.svarint()
		case 7:
			s.MirrorUploadBytes = d.svarint()
		case 8:
			s.DroppedLiveSamples = d.svarint()
		default:
			d.skip(wire)
		}
	}
	return s, d.err
}

// --- api.Params -----------------------------------------------------

// Params value kinds. Scalars get compact fast paths; anything nested
// falls back to a JSON blob for that one value.
const (
	pkNull   = 0
	pkFalse  = 1
	pkTrue   = 2
	pkFloat  = 3
	pkString = 4
	pkJSON   = 5
)

// encodeParams renders a params map as count | (key, kind, value)…
// with keys sorted, so equal maps encode to equal bytes — the
// determinism the bench drift gate and result-cache keys rely on.
// Numbers are stored as float64 to match what a JSON round trip of
// Params produces, keeping binary and JSON replays byte-identical.
func encodeParams(p api.Params) ([]byte, error) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := &enc{}
	e.b = binary.AppendUvarint(e.b, uint64(len(keys)))
	for _, k := range keys {
		e.b = binary.AppendUvarint(e.b, uint64(len(k)))
		e.b = append(e.b, k...)
		switch v := p[k].(type) {
		case nil:
			e.b = append(e.b, pkNull)
		case bool:
			if v {
				e.b = append(e.b, pkTrue)
			} else {
				e.b = append(e.b, pkFalse)
			}
		case float64:
			e.b = append(e.b, pkFloat)
			e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
		case int:
			e.b = append(e.b, pkFloat)
			e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(float64(v)))
		case string:
			e.b = append(e.b, pkString)
			e.b = binary.AppendUvarint(e.b, uint64(len(v)))
			e.b = append(e.b, v...)
		default:
			blob, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("store: encoding param %q: %w", k, err)
			}
			e.b = append(e.b, pkJSON)
			e.b = binary.AppendUvarint(e.b, uint64(len(blob)))
			e.b = append(e.b, blob...)
		}
	}
	return e.b, nil
}

func decodeParams(b []byte) (api.Params, error) {
	d := &dec{b: b}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(b)) { // each entry is ≥2 bytes
		return nil, fmt.Errorf("store: params count %d overruns payload", n)
	}
	p := make(api.Params, n)
	for i := uint64(0); i < n; i++ {
		key := d.str()
		if d.err != nil {
			return nil, d.err
		}
		if d.off >= len(d.b) {
			return nil, fmt.Errorf("store: params entry %q missing kind", key)
		}
		kind := d.b[d.off]
		d.off++
		switch kind {
		case pkNull:
			p[key] = nil
		case pkFalse:
			p[key] = false
		case pkTrue:
			p[key] = true
		case pkFloat:
			p[key] = d.fixed64()
		case pkString:
			p[key] = d.str()
		case pkJSON:
			var v any
			if err := json.Unmarshal(d.bytes(), &v); err != nil {
				if d.err == nil {
					d.err = fmt.Errorf("store: params entry %q: %w", key, err)
				}
			} else {
				p[key] = v
			}
		default:
			return nil, fmt.Errorf("store: params entry %q has unknown kind %d", key, kind)
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return p, nil
}
