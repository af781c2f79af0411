// Package store is the access server's durability layer: an append-only
// write-ahead log of state mutations plus periodic snapshots with log
// compaction. The server stays a pure in-memory scheduler; this package
// only knows how to frame records durably and read them back, and the
// replay logic that turns records back into server state lives with the
// state (accessserver's AttachStore).
//
// # On-disk layout
//
// A store directory holds two files:
//
//	wal.log       the write-ahead log
//	snapshot.bin  the latest compacted snapshot (absent until the
//	              first compaction)
//
// Both use the same framing discipline as the internal/trace binary
// codec: a magic string, a format version byte, then length-prefixed
// payloads — except that every payload here also carries a CRC32, since
// a WAL's defining job is surviving a crash mid-write.
//
//	wal.log:      "BLWAL" ver | uint64 LE generation | records…
//	record:       uvarint payload length | uint32 LE CRC32(payload) | payload
//	snapshot.bin: "BLSNP" ver | one record frame holding the Snapshot
//
// There is one record format on the write side and two on the read
// side. Every append writes the compact binary TLV payload (first byte
// recBinaryMarker, 0x02); replay also accepts the v1 JSON object ('{')
// servers wrote before it, dispatching per frame, so old logs — and
// mixed logs from an upgrade mid-history — keep replaying without
// conversion. A record whose type or state the codec has no table
// entry for is an append error (which the server latches loudly), not a
// second format. Each message's layout is its one field listing in
// codec.go, which drives both encode and decode; the listing's order is
// the emit order and so part of the format. The WAL file header says v2
// on fresh logs and compactions, and Open accepts both header versions.
// Snapshots remain JSON (they are rewritten whole at every compaction,
// so there is no old-snapshot legacy to carry, and compaction cost is
// dominated by the fsync, not encoding).
// Loading tolerates a torn tail — a record whose length, CRC or
// payload does not check out ends the replay and is truncated away,
// exactly the half-written-final-record crash case a WAL must absorb.
//
// # Compaction crash-atomicity
//
// A snapshot records the WAL generation and byte offset it covers
// (WALGen/WALCut), and every compaction replaces the log via an
// atomic temp-file rename that bumps the generation. Load therefore
// always reads a consistent pair: if the snapshot's generation matches
// the log's, the log still holds pre-snapshot records (a crash landed
// between the snapshot rename and the log swap) and replay starts at
// the recorded cut; if it does not match, the log was swapped and
// every record in it postdates the snapshot. Records are never
// replayed twice (ledger deltas are not idempotent) and an
// acknowledged append can only be lost with the files it lived in.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"batterylab/internal/api"
)

// Version is the on-disk format version of the snapshot file (and of
// WAL files written before the binary record codec).
const Version = 1

// walVersion is the current WAL header version. v2 logs may hold both
// JSON and binary record frames; v1 logs hold JSON frames only, and
// remain readable.
const walVersion = 2

const (
	walName  = "wal.log"
	snapName = "snapshot.bin"
)

var (
	walMagic  = []byte("BLWAL")
	snapMagic = []byte("BLSNP")
)

// maxRecordBytes bounds one record's payload; anything larger is
// treated as corruption (a campaign submit record tops out well under a
// megabyte of spec JSON).
const maxRecordBytes = 64 << 20

// Type discriminates WAL records.
type Type string

// Record types, one per logged state mutation.
const (
	TUserAdded     Type = "user_added"
	TUserRemoved   Type = "user_removed"
	TJobPut        Type = "job_put" // create, edit and approve all upsert
	TJobDeleted    Type = "job_deleted"
	TNodeMonitored Type = "node_monitored"
	TNodeOwner     Type = "node_owner"
	TNodeDrain     Type = "node_drain"
	TNodeRemoved   Type = "node_removed"
	// TNodeHostingFlush atomically zeroes a node's accrued hosting time
	// AND credits it to the owner (AtNS carries the duration): one
	// record, so a crash cannot replay the credit while restoring the
	// accrual (double-pay) or vice versa.
	TNodeHostingFlush Type = "node_hosting_flush"
	TBuildQueued      Type = "build_queued"
	TBuildStarted     Type = "build_started"
	TBuildCancelWant  Type = "build_cancel_requested" // abort of a running build
	TBuildFailover    Type = "build_failover"         // reclaimed and requeued
	TBuildFinished    Type = "build_finished"
	TBuildExpired     Type = "build_expired" // retention tombstone
	TCampaign         Type = "campaign"
	TCampaignExpired  Type = "campaign_expired"
	TLedger           Type = "ledger"
	// TPeerJoined upserts a federated peer's membership (name + URL);
	// TPeerLeft tombstones it. Heartbeat state and the advertised node
	// census are ephemeral and re-learned from live announces after a
	// restart — only membership persists.
	TPeerJoined Type = "peer_joined"
	TPeerLeft   Type = "peer_left"
)

// UserRec is one platform member with their access token.
type UserRec struct {
	Name  string `json:"name"`
	Role  int    `json:"role"`
	Token string `json:"token"`
}

// JobRec is a stored pipeline: its spec, approval and revision. Logs
// from before jobs stored their spec (the body was a Go closure then)
// carry placement constraints instead, which replay skips: such a
// record has no Spec and recovers as a job that cannot compile until it
// is edited.
type JobRec struct {
	Name     string              `json:"name"`
	Owner    string              `json:"owner"`
	Spec     *api.ExperimentSpec `json:"spec,omitempty"`
	Approved bool                `json:"approved,omitempty"`
	Revision int                 `json:"revision"`
}

// NodeRec is one vantage point's persisted lifecycle state. The live
// Node handle (an in-process controller or an sshx channel) cannot be
// reconstructed from disk — the hosting process re-registers it at
// startup — but drain flags, removal tombstones, the owner and the
// cached device list survive restarts through this record.
type NodeRec struct {
	Name      string   `json:"name"`
	Owner     string   `json:"owner,omitempty"`
	Monitored bool     `json:"monitored,omitempty"`
	Draining  bool     `json:"draining,omitempty"`
	Removed   bool     `json:"removed,omitempty"`
	Devices   []string `json:"devices,omitempty"`
	// OwedHostingNS is contribution time accrued but not yet flushed to
	// the ledger (below the coalescing threshold); persisting it keeps
	// restarts from shaving the owner's sub-lump remainder.
	OwedHostingNS int64 `json:"owed_hosting_ns,omitempty"`
}

// BuildRec is one build's persisted state. Spec carries the declarative
// wire spec the build was compiled from, so recovery can recompile the
// pipeline through the installed SpecBackend.
type BuildRec struct {
	ID       int                 `json:"id"`
	Job      string              `json:"job"`
	Owner    string              `json:"owner,omitempty"`
	Campaign int                 `json:"campaign,omitempty"`
	Spec     *api.ExperimentSpec `json:"spec,omitempty"`

	State    string `json:"state"`
	Err      string `json:"err,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
	NodeLost bool   `json:"node_lost,omitempty"`
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Retries  int    `json:"retries,omitempty"`

	QueuedAtNS   int64 `json:"queued_at_ns,omitempty"`
	StartedAtNS  int64 `json:"started_at_ns,omitempty"`
	FinishedAtNS int64 `json:"finished_at_ns,omitempty"`

	Summary *api.RunSummary `json:"summary,omitempty"`

	// FeedEpoch counts how many times the build's feed started over
	// (once per recovery). Streaming clients use it to know their
	// resume cursors no longer apply.
	FeedEpoch int `json:"feed_epoch,omitempty"`
}

// CampaignRec is one campaign's membership and concurrency cap.
type CampaignRec struct {
	ID            int   `json:"id"`
	MaxConcurrent int   `json:"max_concurrent,omitempty"`
	Builds        []int `json:"builds"`
}

// PeerRec is one federated peer's persisted membership. Heartbeat
// liveness and the node census are runtime state (re-announced within
// one heartbeat period), so the record carries only what a restarted
// server needs to resume heartbeating: the peer's name and URL.
type PeerRec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// LedgerRec is one credit movement.
type LedgerRec struct {
	User   string  `json:"user"`
	Delta  float64 `json:"delta"`
	Reason string  `json:"reason"`
}

// Record is one WAL entry: the type tag plus the fields that type
// uses. A flat union keeps the codec one message; unused fields stay
// omitted on disk.
type Record struct {
	T Type `json:"t"`

	// TUserAdded.
	User *UserRec `json:"user,omitempty"`
	// TUserRemoved, TJobDeleted, TNodeDrain/TNodeOwner/TNodeRemoved.
	Name string `json:"name,omitempty"`

	// TJobPut.
	Job *JobRec `json:"job,omitempty"`

	// TNodeMonitored (full lifecycle state), TNodeOwner (Owner),
	// TNodeDrain (Draining).
	Node     *NodeRec `json:"node,omitempty"`
	Owner    string   `json:"owner,omitempty"`
	Draining bool     `json:"draining,omitempty"`

	// TBuildQueued carries the full record; the lifecycle records
	// below patch it by BuildID.
	Build   *BuildRec `json:"build,omitempty"`
	BuildID int       `json:"build_id,omitempty"`
	// TBuildStarted.
	NodeName string `json:"node_name,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	// TBuildFailover.
	Retries int    `json:"retries,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// TBuildFinished.
	State    string          `json:"state,omitempty"`
	Err      string          `json:"err,omitempty"`
	Canceled bool            `json:"canceled,omitempty"`
	NodeLost bool            `json:"node_lost,omitempty"`
	Summary  *api.RunSummary `json:"summary,omitempty"`
	AtNS     int64           `json:"at_ns,omitempty"`

	// TCampaign; TCampaignExpired uses CampaignID.
	Campaign   *CampaignRec `json:"campaign,omitempty"`
	CampaignID int          `json:"campaign_id,omitempty"`

	// TLedger.
	Entry *LedgerRec `json:"entry,omitempty"`

	// TPeerJoined carries the full record; TPeerLeft tombstones by Name.
	Peer *PeerRec `json:"peer,omitempty"`
}

// Snapshot is the full compacted state at one instant: replaying it
// plus every WAL record appended after it reconstructs the server.
// Ledger holds each member's recent entry history (bounded — see the
// accessserver ledger cap); Balances holds the authoritative balance,
// which may reflect entries the bounded history no longer carries.
type Snapshot struct {
	V            int                    `json:"v"`
	NextBuild    int                    `json:"next_build"`
	NextCampaign int                    `json:"next_campaign"`
	Users        []UserRec              `json:"users,omitempty"`
	Jobs         []JobRec               `json:"jobs,omitempty"`
	Nodes        []NodeRec              `json:"nodes,omitempty"`
	Builds       []BuildRec             `json:"builds,omitempty"`
	Campaigns    []CampaignRec          `json:"campaigns,omitempty"`
	Ledger       map[string][]LedgerRec `json:"ledger,omitempty"`
	Balances     map[string]float64     `json:"balances,omitempty"`
	Peers        []PeerRec              `json:"peers,omitempty"`

	// WALGen and WALCut tie the snapshot to the log position it covers
	// (see "Compaction crash-atomicity" in the package comment). Set by
	// BeginCompact.
	WALGen uint64 `json:"wal_gen,omitempty"`
	WALCut int64  `json:"wal_cut,omitempty"`
}

// Store is an open store directory: the WAL file handle positioned at
// the end of the last valid record, plus the loaded snapshot and
// records for recovery. AppendBatch is not safe for concurrent use; the
// server serializes appends behind its own store mutex.
type Store struct {
	dir  string
	wal  *os.File
	snap *Snapshot
	recs []Record
	// appended counts records written since open or the last compaction —
	// the compaction trigger reads it to skip empty cycles. dirty
	// tracks records written since the last Sync, so the group-commit
	// ticker skips fsyncs of an unchanged file. gen is the log's
	// generation, bumped by every compaction's log swap.
	appended int
	dirty    bool
	gen      uint64
	// Lifetime counters for the metrics collector: totalAppends and
	// totalBytes survive compactions (unlike appended, which resets);
	// lastSnapBytes is the size of the most recent snapshot write.
	totalAppends  int64
	totalBytes    int64
	lastSnapBytes int64
}

// Open creates (or opens) a store directory, validates both files and
// truncates any torn WAL tail so the next append lands on a clean
// boundary. The snapshot and surviving records are held for Load.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	st := &Store{dir: dir}
	if err := st.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := st.openWAL(); err != nil {
		return nil, err
	}
	return st, nil
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.dir }

// Load returns the snapshot (nil before the first compaction) and the
// WAL records appended after it, in append order.
func (s *Store) Load() (*Snapshot, []Record) { return s.snap, s.recs }

// Appended reports records written since open or the last compaction.
func (s *Store) Appended() int { return s.appended }

// AppendBatch frames a group of records onto the WAL in one write. The
// batch reaches the kernel in a single syscall but carries the same
// durability as batches of one: each record is its own CRC frame, so
// a torn batch replays its valid prefix. An empty batch is a no-op.
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	var payloadBytes int64
	for i := range recs {
		payload, err := encodeRecord(&recs[i])
		if err != nil {
			return fmt.Errorf("store: encoding %s record: %w", recs[i].T, err)
		}
		buf = frame(buf, payload)
		payloadBytes += int64(len(payload))
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("store: appending %d-record batch: %w", len(recs), err)
	}
	s.appended += len(recs)
	s.totalAppends += int64(len(recs))
	s.totalBytes += payloadBytes
	s.dirty = true
	return nil
}

// TotalAppends reports records appended over the store's lifetime
// (compactions do not reset it, unlike Appended).
func (s *Store) TotalAppends() int64 { return s.totalAppends }

// TotalAppendBytes reports the payload bytes appended over the store's
// lifetime.
func (s *Store) TotalAppendBytes() int64 { return s.totalBytes }

// LastSnapshotBytes reports the size of the most recent snapshot
// written through this handle (0 before the first compaction).
func (s *Store) LastSnapshotBytes() int64 { return s.lastSnapBytes }

// Generation reports the WAL's current generation (bumped by every
// compaction's log swap).
func (s *Store) Generation() uint64 { return s.gen }

// Dirty reports whether records were appended since the last Sync.
func (s *Store) Dirty() bool { return s.dirty }

// Sync flushes the WAL to stable storage.
func (s *Store) Sync() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Compaction is an in-flight snapshot+truncate cycle, split in three
// so the caller can keep its state locks out of the fsync path:
//
//	c := st.BeginCompact(snap)   // under the caller's append lock: cheap
//	c.WriteSnapshot()            // no locks: marshal, write, fsync, rename
//	st.FinishCompact(c)          // under the append lock again: splice the WAL
//
// BeginCompact records the WAL cut offset: every record before it is
// state the snapshot captures (the caller guarantees it built snap
// while excluding all writers), and every record appended after it —
// during the unlocked fsync — survives FinishCompact, which truncates
// the log to its header and re-appends that tail. Both sides of the
// cut replay correctly; nothing falls in between.
type Compaction struct {
	snap      *Snapshot
	cut       int64 // WAL offset at Begin; records past it are kept
	appended  int   // appended counter at Begin; subtracted at Finish
	snapBytes int64 // snapshot file size, set by WriteSnapshot
}

// BeginCompact opens a compaction cycle, stamping the snapshot with
// the log generation and cut offset it covers. Callers hold their
// append lock (the same one serializing AppendBatch).
func (s *Store) BeginCompact(snap *Snapshot) (*Compaction, error) {
	off, err := s.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	snap.WALGen = s.gen
	snap.WALCut = off
	return &Compaction{snap: snap, cut: off, appended: s.appended}, nil
}

// WriteSnapshot persists the compaction's snapshot durably: temp file,
// fsync, rename over the old snapshot, directory fsync. Needs no store
// lock — it only touches the snapshot file, and until the rename's
// directory entry is durable a power loss finds the previous
// snapshot+WAL pair intact.
func (s *Store) WriteSnapshot(c *Compaction) error {
	c.snap.V = Version
	payload, err := json.Marshal(c.snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapName+".tmp")
	buf := append(append([]byte{}, snapMagic...), byte(Version))
	buf = frame(buf, payload)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return err
	}
	c.snapBytes = int64(len(buf))
	return syncDir(s.dir)
}

// FinishCompact swaps in a fresh log: a next-generation header plus
// the records appended after the cut (while the snapshot was being
// written), assembled in a temp file and renamed over the old log —
// an atomic swap, so a crash at any instant leaves either the old log
// (whose snapshot-covered prefix the generation check skips on Open)
// or the complete new one; acknowledged records are never stranded
// half-truncated. Callers hold their append lock. The tail is
// typically a handful of records, so the copy is cheap.
func (s *Store) FinishCompact(c *Compaction) error {
	end, err := s.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	buf := walHeader(s.gen + 1)
	if end > c.cut {
		tail := make([]byte, end-c.cut)
		if _, err := s.wal.ReadAt(tail, c.cut); err != nil {
			return err
		}
		buf = append(buf, tail...)
	}
	path := filepath.Join(s.dir, walName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return err
	}
	// Past the rename there is no going back: the renamed file IS the
	// log, so the fd swap and bookkeeping commit unconditionally —
	// leaving s.wal on the now-unlinked old inode would silently strand
	// every future append. A directory-fsync failure below is reported
	// (the rename may not be durable yet; the caller latches until a
	// compaction fully succeeds) but does not unwind the swap.
	s.wal.Close()
	s.wal = f
	s.gen++
	s.dirty = false
	s.snap = c.snap
	s.lastSnapBytes = c.snapBytes
	s.recs = nil
	s.appended -= c.appended
	if s.appended < 0 {
		s.appended = 0
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: publishing compacted log: %w", err)
	}
	return nil
}

// Rollback abandons a compaction whose snapshot never became durable,
// discarding the records appended after its cut. The caller uses it
// when those records were only accepted on the strength of the
// snapshot healing an earlier WAL gap: without the snapshot, keeping
// them would leave records after a hole, which replays later state
// onto earlier state. Callers hold their append lock.
func (s *Store) Rollback(c *Compaction) error {
	if err := s.wal.Truncate(c.cut); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	s.appended = c.appended
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close closes the WAL handle.
func (s *Store) Close() error { return s.wal.Close() }

// frame appends payload to dst as uvarint length | CRC32 | payload.
func frame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+4+len(payload))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// readFrame reads one framed payload, reporting io.EOF at a clean
// boundary and a descriptive error for anything torn or corrupt.
func readFrame(r *bytes.Reader) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("store: reading record length: %w", err)
	}
	if size > maxRecordBytes {
		return nil, fmt.Errorf("store: record length %d exceeds the %d cap", size, maxRecordBytes)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("store: reading record checksum: %w", err)
	}
	if size > uint64(r.Len()) { // before allocating: a torn or hostile length costs nothing
		return nil, fmt.Errorf("store: reading record payload: %w", io.ErrUnexpectedEOF)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("store: reading record payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, fmt.Errorf("store: record checksum mismatch")
	}
	return payload, nil
}

// loadSnapshot reads snapshot.bin if present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < len(snapMagic)+1 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return fmt.Errorf("store: %s is not a snapshot file", snapName)
	}
	if ver := data[len(snapMagic)]; ver != Version {
		return fmt.Errorf("store: snapshot format v%d unsupported (want v%d)", ver, Version)
	}
	payload, err := readFrame(bytes.NewReader(data[len(snapMagic)+1:]))
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("store: decoding snapshot: %w", err)
	}
	s.snap = &snap
	return nil
}

// walHeaderLen is magic + version byte + 8-byte generation.
var walHeaderLen = int64(len(walMagic) + 1 + 8)

// walHeader frames a WAL file prefix for the given generation.
func walHeader(gen uint64) []byte {
	hdr := append(append([]byte{}, walMagic...), byte(walVersion))
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], gen)
	return append(hdr, g[:]...)
}

// openWAL opens (or creates) the WAL, replays its valid suffix and
// truncates any torn tail. Replay starts at the snapshot's recorded
// cut when the snapshot covers this log generation (see the package
// comment), at the header otherwise. The log is read into memory in
// one gulp — compaction bounds its size — so the scan runs at memory
// speed and the truncation offset is exact. loadSnapshot must run
// first.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return err
	}
	if int64(len(data)) < walHeaderLen {
		// Empty, or a header torn by a crash during the initial
		// creation (the only unsynced header write — compaction swaps
		// in complete files atomically). A prefix of the magic means
		// torn-at-birth, not some foreign file: start fresh. Anything
		// else is not ours to overwrite.
		n := len(data)
		if n > len(walMagic) {
			n = len(walMagic)
		}
		if n > 0 && string(data[:n]) != string(walMagic[:n]) {
			f.Close()
			return fmt.Errorf("store: %s is not a WAL file", walName)
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		s.gen = 1
		if _, err := f.Write(walHeader(s.gen)); err != nil {
			f.Close()
			return err
		}
		return nil
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		f.Close()
		return fmt.Errorf("store: %s is not a WAL file", walName)
	}
	if ver := data[len(walMagic)]; ver != Version && ver != walVersion {
		f.Close()
		return fmt.Errorf("store: WAL format v%d unsupported (want v%d or v%d)", ver, Version, walVersion)
	}
	s.gen = binary.LittleEndian.Uint64(data[len(walMagic)+1:])
	start := walHeaderLen
	if s.snap != nil && s.snap.WALGen == s.gen {
		// The snapshot covers a prefix of this very log (a crash landed
		// between the snapshot rename and the log swap): skip it, or
		// every covered record — ledger deltas included — would apply
		// twice.
		if cut := s.snap.WALCut; cut >= walHeaderLen && cut <= int64(len(data)) {
			start = cut
		}
	}
	recs, valid := scanRecords(data, start)
	s.recs = recs
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	return nil
}

// scanRecords parses frames from data starting at off, returning the
// decoded records and the offset just past the last valid one. A frame
// whose length, checksum or payload fails to check out ends the scan —
// the torn tail a crash mid-append leaves behind. Each frame's payload
// picks its own codec by first byte: recBinaryMarker opens the binary
// TLV encoding, anything else is JSON — so logs mixing pre- and
// post-upgrade records replay in one pass. Records decode straight into
// their slot of the result, through one codec.
func scanRecords(data []byte, off int64) ([]Record, int64) {
	var recs []Record
	var c codec
	r := bytes.NewReader(data[off:])
	valid := off
	for {
		payload, err := readFrame(r)
		if err != nil {
			return recs, valid
		}
		recs = append(recs, Record{})
		rec := &recs[len(recs)-1]
		if len(payload) > 0 && payload[0] == recBinaryMarker {
			err = c.decodeRecord(payload, rec)
		} else {
			err = json.Unmarshal(payload, rec)
		}
		if err != nil {
			return recs[:len(recs)-1], valid
		}
		valid = off + int64(len(data[off:])-r.Len())
	}
}
