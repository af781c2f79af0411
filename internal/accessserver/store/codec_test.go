package store

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"batterylab/internal/api"
)

// codecVocabulary is one record of every type with every field its
// type uses populated — the shapes the binary codec must round-trip.
func codecVocabulary() []Record {
	spec := &api.ExperimentSpec{
		Node:   "node1",
		Device: "R58M12ABCDE",
		Workload: api.WorkloadSpec{
			Name: "browser",
			Params: api.Params{
				"browser": "Brave",
				"pages":   float64(3),
				"warm":    true,
				"note":    nil,
				"nested":  map[string]any{"a": float64(1), "b": []any{"x", "y"}},
			},
		},
		Monitor:     api.MonitorSpec{SampleRateHz: 250, VoltageV: 4.05, CPUSamplePeriodMS: 500, PaddingMS: 2000},
		Mirroring:   true,
		VPNLocation: "japan",
		Transport:   "sshx",
		Constraints: api.ConstraintsSpec{RequireLowCPU: true, AllowFallback: true},
	}
	sum := &api.RunSummary{
		Samples: 300000, MeanMA: 142.5, P50MA: 139.25, P95MA: 201.75,
		EnergyMAH: 3.2, DurationNS: 60000000000, MirrorUploadBytes: 1 << 20, DroppedLiveSamples: 7,
	}
	return []Record{
		{T: TUserAdded, User: &UserRec{Name: "ana", Role: 2, Token: "tok-1"}},
		{T: TUserRemoved, Name: "bo"},
		{T: TJobPut, Job: &JobRec{Name: "exp", Owner: "ana", Spec: spec, Approved: true, Revision: 3}},
		{T: TJobDeleted, Name: "old"},
		{T: TNodeMonitored, Node: &NodeRec{Name: "node1", Owner: "ana", Monitored: true, Draining: true, Removed: true, Devices: []string{"a", "b"}, OwedHostingNS: -5}},
		{T: TNodeOwner, Name: "node1", Owner: "ana"},
		{T: TNodeDrain, Name: "node1", Draining: true},
		{T: TNodeRemoved, Name: "node1"},
		{T: TNodeHostingFlush, Name: "node1", AtNS: 3600000000000},
		{T: TBuildQueued, Build: &BuildRec{
			ID: 1, Job: "exp", Owner: "ana", Campaign: 2, Spec: spec,
			State: "queued", Err: "boom", Canceled: true, NodeLost: true,
			Node: "node1", Attempts: 2, Retries: 1,
			QueuedAtNS: 1000, StartedAtNS: 2000, FinishedAtNS: 3000,
			Summary: sum, FeedEpoch: 4,
		}},
		{T: TBuildStarted, BuildID: 1, NodeName: "node1", Attempt: 1, AtNS: 2000},
		{T: TBuildCancelWant, BuildID: 1},
		{T: TBuildFailover, BuildID: 1, Retries: 1, Reason: "node lost", AtNS: 2500},
		{T: TBuildFinished, BuildID: 1, State: "success", Summary: sum, AtNS: 5000},
		{T: TBuildExpired, BuildID: 1},
		{T: TCampaign, Campaign: &CampaignRec{ID: 1, MaxConcurrent: 2, Builds: []int{1, 2, 3}}},
		{T: TCampaignExpired, CampaignID: 1},
		{T: TLedger, Entry: &LedgerRec{User: "ana", Delta: -2.5, Reason: "build 1"}},
		{T: TPeerJoined, Peer: &PeerRec{Name: "lab-eu", URL: "http://lab-eu.example:8080"}},
		{T: TPeerLeft, Name: "lab-eu"},
	}
}

// fatRecord indexes the vocabulary's TBuildQueued record, the one with
// every nested message populated.
const fatRecord = 9

// decode is decodeRecord through a throwaway codec.
func decode(payload []byte) (Record, error) {
	var c codec
	var rec Record
	err := c.decodeRecord(payload, &rec)
	return rec, err
}

// walHeaderV1 frames a pre-binary-codec WAL prefix, for the tests that
// pin the upgrade path (fixtures, fuzz seeds).
func walHeaderV1(gen uint64) []byte {
	hdr := walHeader(gen)
	hdr[len(walMagic)] = Version
	return hdr
}

// futureFields is three fields no listing names, one per wire type —
// what a payload from a later version of the codec carries.
func futureFields() []byte {
	c := &codec{}
	s, i, f := "future string", int64(12345), 2.75
	c.str(60, &s)
	c.int64(61, &i)
	c.float(62, &f)
	return c.b
}

// TestCodecCoversEveryType pins that the enum table and the vocabulary
// above stay in lockstep with the declared record types.
func TestCodecCoversEveryType(t *testing.T) {
	seen := map[Type]bool{}
	for _, rec := range codecVocabulary() {
		seen[rec.T] = true
	}
	for _, typ := range typeByIndex {
		if !seen[typ] {
			t.Errorf("codecVocabulary missing record type %q", typ)
		}
	}
	if len(typeByIndex) != 20 {
		t.Errorf("typeByIndex has %d entries; a new record type must be APPENDED and covered here", len(typeByIndex))
	}
}

// TestCodecRoundTrip checks encode→decode is the identity for every
// record shape, and that the binary form is materially smaller than
// JSON (the reason it exists).
func TestCodecRoundTrip(t *testing.T) {
	var binTotal, jsonTotal int
	for i, rec := range codecVocabulary() {
		payload, err := encodeRecord(&rec)
		if err != nil {
			t.Fatalf("record %d (%s): encode: %v", i, rec.T, err)
		}
		if payload[0] != recBinaryMarker {
			t.Fatalf("record %d: payload does not start with the binary marker", i)
		}
		got, err := decode(payload)
		if err != nil {
			t.Fatalf("record %d (%s): decode: %v", i, rec.T, err)
		}
		// Compare through JSON: the JSON codec's round trip is the
		// semantics replay depends on (e.g. param numbers as float64).
		want := rec
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Errorf("record %d (%s) round trip:\n want %s\n got  %s", i, rec.T, wj, gj)
		}
		binTotal += len(payload)
		jsonTotal += len(wj)
	}
	if binTotal*2 >= jsonTotal {
		t.Errorf("binary codec too fat: %d bytes vs %d JSON (want <50%%)", binTotal, jsonTotal)
	}
}

// TestCodecJSONBinaryReplayIdentical appends the same records through
// the JSON framing (hand-built, as a pre-upgrade server would have)
// and through AppendBatch's binary framing, then checks both logs replay to
// identical record lists.
func TestCodecJSONBinaryReplayIdentical(t *testing.T) {
	recs := codecVocabulary()

	jsonDir := t.TempDir()
	buf := bytes.NewBuffer(walHeaderV1(1))
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(nil, payload))
	}
	if err := os.WriteFile(filepath.Join(jsonDir, walName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	binDir := t.TempDir()
	st, err := Open(binDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	load := func(dir string) []Record {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, got := st.Load()
		return got
	}
	fromJSON, fromBin := load(jsonDir), load(binDir)
	jj, _ := json.Marshal(fromJSON)
	bj, _ := json.Marshal(fromBin)
	if !bytes.Equal(jj, bj) {
		t.Fatalf("JSON and binary logs replay differently:\n json   %s\n binary %s", jj, bj)
	}
	if len(fromBin) != len(recs) {
		t.Fatalf("replayed %d records, appended %d", len(fromBin), len(recs))
	}
}

// TestCodecMixedLogReplays pins the upgrade case: a v1-header log of
// JSON frames that a post-upgrade server appends binary frames to
// must replay every record, in order, across the codec boundary.
func TestCodecMixedLogReplays(t *testing.T) {
	recs := codecVocabulary()
	half := len(recs) / 2

	dir := t.TempDir()
	buf := bytes.NewBuffer(walHeaderV1(1))
	for _, rec := range recs[:half] {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(nil, payload))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := st.Load(); len(got) != half {
		t.Fatalf("v1 log replayed %d records, want %d", len(got), half)
	}
	for _, rec := range recs[half:] {
		if err := st.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, got := st2.Load()
	wj, _ := json.Marshal(recs)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("mixed log replay diverged:\n want %s\n got  %s", wj, gj)
	}
}

// TestGoldenV1WALReplay is the upgrade pin: testdata/v1wal holds a WAL
// written by the pre-binary-codec store (JSON frames, v1 header) along
// with the byte-exact JSON dump of the records it replayed to at the
// time. Today's store must reproduce that dump exactly — byte-identical
// replayed state across the codec change.
func TestGoldenV1WALReplay(t *testing.T) {
	src := filepath.Join("testdata", "v1wal")
	golden, err := os.ReadFile(filepath.Join(src, "records.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	if wal[len(walMagic)] != 1 {
		t.Fatalf("fixture WAL header version = %d, fixture must stay pre-upgrade v1", wal[len(walMagic)])
	}

	// Open mutates the log (tail truncation), so replay from a copy.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, recs := st.Load()

	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, golden) {
		t.Fatalf("v1 WAL no longer replays to the golden state:\n--- want ---\n%s\n--- got ---\n%s", golden, got)
	}

	// The upgraded store must also be able to extend the old log and
	// replay the union: append one binary record, reopen, recount.
	if err := st.AppendBatch([]Record{{T: TBuildExpired, BuildID: 99}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, recs2 := st2.Load()
	if len(recs2) != len(recs)+1 {
		t.Fatalf("extended fixture replayed %d records, want %d", len(recs2), len(recs)+1)
	}
	if last := recs2[len(recs2)-1]; last.T != TBuildExpired || last.BuildID != 99 {
		t.Fatalf("extended fixture tail = %+v", last)
	}
}

// TestAppendBatch checks the group-commit path: a batch replays
// identically to sequential appends, updates the same counters, and a
// torn batch tail replays its valid prefix.
func TestAppendBatch(t *testing.T) {
	recs := codecVocabulary()

	seqDir, batchDir := t.TempDir(), t.TempDir()
	seq, err := Open(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := seq.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := Open(batchDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := batch.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if batch.Appended() != seq.Appended() || batch.TotalAppends() != seq.TotalAppends() ||
		batch.TotalAppendBytes() != seq.TotalAppendBytes() || !batch.Dirty() {
		t.Fatalf("batch counters diverge: appended %d/%d total %d/%d bytes %d/%d dirty %v",
			batch.Appended(), seq.Appended(), batch.TotalAppends(), seq.TotalAppends(),
			batch.TotalAppendBytes(), seq.TotalAppendBytes(), batch.Dirty())
	}
	seq.Close()
	batch.Close()

	seqBytes, err := os.ReadFile(filepath.Join(seqDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	batchBytes, err := os.ReadFile(filepath.Join(batchDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, batchBytes) {
		t.Fatal("batch append wrote different bytes than sequential appends")
	}

	// Tear the batch mid-final-frame: replay keeps everything before it.
	torn := batchBytes[:len(batchBytes)-3]
	tornDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(tornDir, walName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, got := st.Load()
	if len(got) != len(recs)-1 {
		t.Fatalf("torn batch replayed %d records, want %d", len(got), len(recs)-1)
	}
}

// TestCodecCorruptBinaryFrames feeds systematically damaged binary
// payloads through decodeRecord: every one must error, never panic.
func TestCodecCorruptBinaryFrames(t *testing.T) {
	payload, err := encodeRecord(&codecVocabulary()[fatRecord])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(payload); err != nil {
		t.Fatalf("pristine payload: %v", err)
	}
	// Truncations at every boundary.
	for n := 0; n < len(payload); n++ {
		decode(payload[:n]) // must not panic; error or partial both fine
	}
	// Single-byte corruptions.
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		decode(mut)
	}
	// Empty and marker-only.
	if _, err := decode(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := decode([]byte{recBinaryMarker}); err == nil {
		t.Fatal("marker-only payload decoded (no type field)")
	}
}

// TestCodecUnknownFieldsSkipped pins additive evolution: a payload
// carrying field numbers today's decoder does not know must decode the
// fields it does know and ignore the rest.
func TestCodecUnknownFieldsSkipped(t *testing.T) {
	payload, err := encodeRecord(&Record{T: TBuildExpired, BuildID: 42})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decode(append(payload, futureFields()...))
	if err != nil {
		t.Fatal(err)
	}
	if rec.T != TBuildExpired || rec.BuildID != 42 {
		t.Fatalf("decoded %+v", rec)
	}
}

// TestCodecParamsDeterministic pins that equal params maps encode to
// equal bytes regardless of insertion order — the golden WAL fixture
// (TestGoldenV2WAL) depends on it.
func TestCodecParamsDeterministic(t *testing.T) {
	a := api.Params{"z": "last", "a": float64(1), "m": true}
	b := api.Params{"m": true, "a": float64(1), "z": "last"}
	ab, err := encodeParams(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := encodeParams(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("param encoding depends on map order")
	}
	got, err := decodeParams(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(map[string]any(got), map[string]any(a)) {
		t.Fatalf("params round trip: %v != %v", got, a)
	}
}

// TestGoldenV2WAL pins the bytes: testdata/v2wal holds the vocabulary as
// the hand-written per-message encoders (before every message had one
// field listing) appended it, and the JSON dump of what they replayed it
// to. Today's encoder must reproduce the log byte for byte and today's
// decoder the dump — the listing order IS the format.
func TestGoldenV2WAL(t *testing.T) {
	src := filepath.Join("testdata", "v2wal")
	wantWAL, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(src, "records.golden.json"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range codecVocabulary() {
		if err := st.AppendBatch([]Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	gotWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWAL, wantWAL) {
		t.Fatalf("the vocabulary no longer encodes to the golden log:\n want %x\n got  %x", wantWAL, gotWAL)
	}

	recs, valid := scanRecords(wantWAL, walHeaderLen)
	if valid != int64(len(wantWAL)) {
		t.Fatalf("golden log replayed to offset %d of %d", valid, len(wantWAL))
	}
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, golden) {
		t.Fatalf("golden log no longer replays to the golden state:\n--- want ---\n%s\n--- got ---\n%s", golden, got)
	}
}

// TestAppendUntabledIsAnError: there is no second write format, so a
// record type or build state without a table entry fails the append
// (the server latches durability off loudly) and writes nothing.
func TestAppendUntabledIsAnError(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range []Record{
		{BuildID: 1},
		{T: "mystery", BuildID: 1},
		{T: TBuildFinished, BuildID: 1, State: "exploded"},
		{T: TBuildQueued, Build: &BuildRec{ID: 1, State: "exploded"}},
	} {
		if err := st.AppendBatch([]Record{rec}); err == nil {
			t.Errorf("append of %+v succeeded", rec)
		}
		if err := st.AppendBatch([]Record{{T: TBuildExpired, BuildID: 2}, rec}); err == nil {
			t.Errorf("batch append of %+v succeeded", rec)
		}
	}
	if st.Appended() != 0 || st.Dirty() {
		t.Fatalf("failed appends left %d records behind (dirty %v)", st.Appended(), st.Dirty())
	}
}

// tlvField is one field of a TLV body: its number, wire type, and the
// value bytes after the key (for a bytes field, after the length too).
type tlvField struct {
	n, wire int
	value   []byte
}

func splitFields(t testing.TB, body []byte) []tlvField {
	t.Helper()
	var out []tlvField
	c := codec{reading: true, b: body, end: len(body)}
	for c.next(); c.field >= 0; c.next() {
		f := tlvField{n: c.field, wire: c.wire}
		if at := c.off; c.wire == wBytes {
			f.value = c.bytes()
		} else {
			c.skip()
			f.value = body[at:c.off]
		}
		out = append(out, f)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	return out
}

func joinFields(fields []tlvField) []byte {
	var c codec
	for _, f := range fields {
		c.key(f.n, f.wire)
		if f.wire == wBytes {
			c.b = appendString(c.b, f.value)
		} else {
			c.b = append(c.b, f.value...)
		}
	}
	return c.b
}

// messageFields says which bytes fields of which message hold a nested
// message, so reverseFields can recurse.
var messageFields = map[string]map[int]string{
	"record": {2: "user", 4: "job", 5: "node", 8: "build", 18: "summary", 20: "campaign", 22: "entry", 24: "peer"},
	"job":    {9: "spec"},
	"build":  {5: "spec", 16: "summary"},
	"spec":   {5: "monitor"},
}

// reverseFields re-emits a message body with its fields — and those of
// every nested message — in the opposite order.
func reverseFields(t testing.TB, message string, body []byte) []byte {
	fields := splitFields(t, body)
	for i := range fields {
		if nested, ok := messageFields[message][fields[i].n]; ok {
			fields[i].value = reverseFields(t, nested, fields[i].value)
		}
	}
	for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
		fields[i], fields[j] = fields[j], fields[i]
	}
	return joinFields(fields)
}

// withMarker prefixes a record body with the binary marker.
func withMarker(body []byte) []byte { return append([]byte{recBinaryMarker}, body...) }

// TestCodecOrderIndependent: the listing order is the WRITE order only.
// A payload with every message's fields reversed, or with fields no
// listing names wedged between the known ones, decodes to the same
// record (repeated fields in their new arrival order).
func TestCodecOrderIndependent(t *testing.T) {
	for i, want := range codecVocabulary() {
		payload, err := encodeRecord(&want)
		if err != nil {
			t.Fatal(err)
		}
		reversed, err := decode(withMarker(reverseFields(t, "record", payload[1:])))
		if err != nil {
			t.Fatalf("record %d (%s) reversed: %v", i, want.T, err)
		}
		if reversed.Node != nil {
			slices.Reverse(reversed.Node.Devices) // a repeated field appends as it arrives
		}
		if !reflect.DeepEqual(reversed, want) {
			t.Errorf("record %d (%s) reversed:\n want %+v\n got  %+v", i, want.T, want, reversed)
		}

		var wedged []tlvField
		future := splitFields(t, futureFields())
		for j, f := range splitFields(t, payload[1:]) {
			wedged = append(wedged, future[j%len(future)], f)
		}
		got, err := decode(withMarker(joinFields(wedged)))
		if err != nil {
			t.Fatalf("record %d (%s) with unknown fields: %v", i, want.T, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d (%s) with unknown fields:\n want %+v\n got  %+v", i, want.T, want, got)
		}
	}
}

// recordBody encodes rec's fields without the marker (and without
// requiring a type), for assembling payloads our encoder never writes.
func recordBody(rec Record) []byte {
	var c codec
	recordFields(&c, &rec)
	return c.b
}

// TestCodecRepeatedAndAbsentFields pins what a reader does with a
// payload that names a field twice or not at all: a scalar and a nested
// message keep the last occurrence (whole — no merge), the repeated
// devices field appends, retired numbers are skipped, and a campaign
// without its ids field has an empty list, not a nil one.
func TestCodecRepeatedAndAbsentFields(t *testing.T) {
	first := Record{T: TNodeMonitored, BuildID: 1, Node: &NodeRec{Name: "a", Owner: "ana", Devices: []string{"x"}}}
	second := Record{BuildID: 2, Node: &NodeRec{Name: "b", Devices: []string{"y", "z"}}}
	got, err := decode(withMarker(append(recordBody(first), recordBody(second)...)))
	if err != nil {
		t.Fatal(err)
	}
	want := second
	want.T = TNodeMonitored
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repeated fields:\n want %+v\n got  %+v", want, got)
	}

	// A job record as a closure-job server wrote it: fields 3–6 present.
	var job codec
	name, node, low := "nightly", "node1", true
	job.str(1, &name)
	job.str(3, &node)
	job.str(4, &node)
	job.flag(5, &low)
	job.flag(6, &low)
	job.flag(7, &low)
	got, err = decode(withMarker(append(recordBody(Record{T: TJobPut}), joinFields([]tlvField{{4, wBytes, job.b}})...)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Record{T: TJobPut, Job: &JobRec{Name: "nightly", Approved: true}}); !reflect.DeepEqual(got, want) {
		t.Errorf("closure-job record:\n want %+v\n got  %+v", want, got)
	}

	var camp codec
	id := 7
	camp.int(1, &id)
	for _, body := range [][]byte{camp.b, nil} {
		got, err = decode(withMarker(append(recordBody(Record{T: TCampaign}), joinFields([]tlvField{{20, wBytes, body}})...)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Campaign == nil || got.Campaign.Builds == nil || len(got.Campaign.Builds) != 0 {
			t.Errorf("campaign body %x without field 3 decoded to %+v, want Builds: []", body, got.Campaign)
		}
	}
}

// TestEveryTypeIsTabled parses store.go and checks that every constant
// declared with type Type is in typeByIndex — the fact that makes "a
// record type without a table entry" a programming error the append
// path may refuse, rather than something a second format must absorb.
func TestEveryTypeIsTabled(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "store.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Type" {
				continue
			}
			for i, name := range vs.Names {
				val, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				declared++
				if _, ok := indexByType[Type(val)]; !ok {
					t.Errorf("%s (%q) is not in typeByIndex: append it", name.Name, val)
				}
			}
		}
	}
	if declared != len(typeByIndex) {
		t.Errorf("store.go declares %d Type constants, typeByIndex lists %d", declared, len(typeByIndex))
	}
}

// TestCodecAllocations bounds the codec's garbage by what the
// hand-written per-message encoders and decoders cost (34 allocations
// to append the fat record, 14 013 to scan 1 000 small ones): nested
// messages are written in place and a scan decodes into the result's
// slots through one codec, so the single listing costs no more.
func TestCodecAllocations(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fat := []Record{codecVocabulary()[fatRecord]}
	if n := testing.AllocsPerRun(100, func() { st.AppendBatch(fat) }); n > 34 {
		t.Errorf("AppendBatch of the fat build record allocates %v times, want ≤ 34", n)
	}
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = rec(i + 1)
	}
	log := walBytesBinary(t, recs)
	if n := testing.AllocsPerRun(10, func() { scanRecords(log, walHeaderLen) }); n > 14013 {
		t.Errorf("scanning 1000 records allocates %v times, want ≤ 14013", n)
	}
}
