package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
		{T: TJobPut, Job: &JobRec{Name: "exp", Owner: "ana", Node: "node1", Device: "dev", RequireLowCPU: true, Fallback: true, Spec: spec, Approved: true, Revision: 3}},
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
		payload, ok, err := encodeRecord(rec)
		if err != nil || !ok {
			t.Fatalf("record %d (%s): encode ok=%v err=%v", i, rec.T, ok, err)
		}
		if payload[0] != recBinaryMarker {
			t.Fatalf("record %d: payload does not start with the binary marker", i)
		}
		got, err := decodeRecord(payload)
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
// and through Append's binary framing, then checks both logs replay to
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
		buf.Write(frame(payload))
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
		if err := st.Append(rec); err != nil {
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
		buf.Write(frame(payload))
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
		if err := st.Append(rec); err != nil {
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
	if err := st.Append(Record{T: TBuildExpired, BuildID: 99}); err != nil {
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
		if err := seq.Append(rec); err != nil {
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
	payload, ok, err := encodeRecord(codecVocabulary()[9]) // the fat TBuildQueued
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if _, err := decodeRecord(payload); err != nil {
		t.Fatalf("pristine payload: %v", err)
	}
	// Truncations at every boundary.
	for n := 0; n < len(payload); n++ {
		decodeRecord(payload[:n]) // must not panic; error or partial both fine
	}
	// Single-byte corruptions.
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		decodeRecord(mut)
	}
	// Empty and marker-only.
	if _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := decodeRecord([]byte{recBinaryMarker}); err == nil {
		t.Fatal("marker-only payload decoded (no type field)")
	}
}

// TestCodecUnknownFieldsSkipped pins additive evolution: a payload
// carrying field numbers today's decoder does not know must decode the
// fields it does know and ignore the rest.
func TestCodecUnknownFieldsSkipped(t *testing.T) {
	e := &enc{b: []byte{recBinaryMarker}}
	e.uvarint(rfType, indexByType[TBuildExpired])
	e.svarint(rfBuildID, 42)
	e.str(60, "future string") // unknown bytes field
	e.svarint(61, 12345)       // unknown varint field
	e.float(62, 2.75)          // unknown fixed64 field
	rec, err := decodeRecord(e.b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.T != TBuildExpired || rec.BuildID != 42 {
		t.Fatalf("decoded %+v", rec)
	}
}

// TestCodecParamsDeterministic pins that equal params maps encode to
// equal bytes regardless of insertion order — the bench drift gate
// (wal_bytes) depends on it.
func TestCodecParamsDeterministic(t *testing.T) {
	a := api.Params{"z": "last", "a": float64(1), "m": true}
	b := api.Params{"m": true, "a": float64(1), "z": "last"}
	ab, err := encodeParams(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := encodeParams(b)
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
