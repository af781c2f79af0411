package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"batterylab/internal/api"
)

func rec(i int) Record {
	return Record{T: TBuildQueued, Build: &BuildRec{
		ID: i, Job: "spec:idle@node1", Owner: "bob", State: "queued",
		QueuedAtNS: int64(i) * 1e9,
		Spec: &api.ExperimentSpec{
			Node: "node1", Device: "dev1",
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": float64(1000)}},
		},
	}}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{T: TUserAdded, User: &UserRec{Name: "alice", Role: 0, Token: "tok"}},
		rec(1),
		{T: TBuildStarted, BuildID: 1, NodeName: "node1", Attempt: 1, AtNS: 42},
		{T: TBuildFinished, BuildID: 1, State: "success", AtNS: 99,
			Summary: &api.RunSummary{Samples: 10, MeanMA: 1.5}},
		{T: TLedger, Entry: &LedgerRec{User: "bob", Delta: -2.5, Reason: "experiment"}},
	}
	for _, r := range want {
		if err := st.AppendBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, got := st2.Load()
	if snap != nil {
		t.Fatalf("snapshot before any compaction: %+v", snap)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestTornTailTruncated: a crash mid-append leaves a half-written
// record; reopening keeps the valid prefix and drops the tail, and the
// next append lands on a clean boundary.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.AppendBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the tail: chop bytes off the last record.
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, recs := st2.Load()
	if len(recs) != 2 {
		t.Fatalf("got %d records after torn tail, want 2", len(recs))
	}
	// The WAL must be usable again: append and reopen.
	if err := st2.AppendBatch([]Record{rec(4)}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, recs = st3.Load()
	if len(recs) != 3 || recs[2].Build.ID != 4 {
		t.Fatalf("append after truncation not readable: %+v", recs)
	}
}

// TestCorruptPayloadStopsReplay: a flipped bit inside a record fails
// its CRC and ends the replay there (everything after is discarded —
// the log has lost its integrity at that point).
func TestCorruptPayloadStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(walMagic) + 1)
	for i := 1; i <= 3; i++ {
		if err := st.AppendBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			info, _ := st.wal.Stat()
			off = info.Size()
		}
	}
	st.Close()

	path := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(path)
	data[off+10] ^= 0xff // inside record 2's frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, recs := st2.Load()
	if len(recs) != 1 || recs[0].Build.ID != 1 {
		t.Fatalf("got %d records after corruption, want only the first", len(recs))
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := st.AppendBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Appended() != 5 {
		t.Fatalf("Appended = %d, want 5", st.Appended())
	}
	snap := &Snapshot{
		NextBuild:    6,
		NextCampaign: 2,
		Users:        []UserRec{{Name: "alice", Role: 0, Token: "tok"}},
		Builds:       []BuildRec{{ID: 5, Job: "j", State: "success"}},
		Ledger:       map[string][]LedgerRec{"bob": {{User: "bob", Delta: 3, Reason: "grant"}}},
	}
	c, err := st.BeginCompact(snap)
	if err == nil {
		err = st.WriteSnapshot(c)
	}
	if err == nil {
		err = st.FinishCompact(c)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended() != 0 {
		t.Fatalf("Appended after compaction = %d, want 0", st.Appended())
	}
	// Post-compaction appends replay on top of the snapshot.
	if err := st.AppendBatch([]Record{{T: TBuildExpired, BuildID: 5}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	gotSnap, recs := st2.Load()
	if gotSnap == nil {
		t.Fatal("no snapshot after compaction")
	}
	if gotSnap.NextBuild != 6 || len(gotSnap.Users) != 1 || len(gotSnap.Builds) != 1 {
		t.Fatalf("snapshot mismatch: %+v", gotSnap)
	}
	if len(gotSnap.Ledger["bob"]) != 1 {
		t.Fatalf("ledger lost in snapshot: %+v", gotSnap.Ledger)
	}
	if len(recs) != 1 || recs[0].T != TBuildExpired {
		t.Fatalf("post-compaction records = %+v, want one build_expired", recs)
	}
}

// TestCompactionPreservesTail: records appended between BeginCompact
// and FinishCompact (while the snapshot fsyncs, outside the caller's
// locks) survive the log reset instead of being truncated away.
func TestCompactionPreservesTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.AppendBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := st.BeginCompact(&Snapshot{NextBuild: 4, NextCampaign: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent-with-fsync appends: past the cut, must survive.
	for i := 4; i <= 5; i++ {
		if err := st.AppendBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(c); err != nil {
		t.Fatal(err)
	}
	if err := st.FinishCompact(c); err != nil {
		t.Fatal(err)
	}
	if st.Appended() != 2 {
		t.Fatalf("Appended after splice = %d, want 2 (the tail)", st.Appended())
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, recs := st2.Load()
	if snap == nil || snap.NextBuild != 4 {
		t.Fatalf("snapshot = %+v, want NextBuild 4", snap)
	}
	if len(recs) != 2 || recs[0].Build.ID != 4 || recs[1].Build.ID != 5 {
		t.Fatalf("tail records = %+v, want builds 4 and 5", recs)
	}
}

// TestCompactionCrashBeforeLogSwap: a crash after the snapshot rename
// but before the log swap (no FinishCompact) must not replay the
// snapshot-covered records a second time — ledger deltas are not
// idempotent. The snapshot's WALGen/WALCut marker skips them.
func TestCompactionCrashBeforeLogSwap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.AppendBatch([]Record{{T: TLedger, Entry: &LedgerRec{User: "bob", Delta: 5, Reason: "grant"}}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{NextBuild: 1, NextCampaign: 1, Balances: map[string]float64{"bob": 15}}
	c, err := st.BeginCompact(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(c); err != nil {
		t.Fatal(err)
	}
	// Crash here: FinishCompact never runs. One more record lands in
	// the old-generation log past the cut.
	if err := st.AppendBatch([]Record{{T: TLedger, Entry: &LedgerRec{User: "bob", Delta: -2, Reason: "experiment"}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	gotSnap, recs := st2.Load()
	if gotSnap == nil || gotSnap.Balances["bob"] != 15 {
		t.Fatalf("snapshot = %+v, want bob at 15", gotSnap)
	}
	// Only the post-cut record replays: balance 15 - 2 = 13, not
	// 15 + 15 - 2 from double-applying the covered grants.
	if len(recs) != 1 || recs[0].Entry.Delta != -2 {
		t.Fatalf("replayed %+v, want exactly the post-cut debit", recs)
	}
}

func TestEmptyDirIsEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, recs := st.Load()
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh store not empty: snap=%v recs=%v", snap, recs)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	r := rec(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendBatch([]Record{r}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := st.AppendBatch([]Record{rec(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		_, recs := st.Load()
		if len(recs) != 10_000 {
			b.Fatalf("replayed %d records", len(recs))
		}
		st.Close()
	}
}
