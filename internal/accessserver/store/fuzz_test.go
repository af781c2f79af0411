package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedRecords is a representative slice of the WAL vocabulary, so
// mutations start from well-formed frames of real record shapes rather
// than random bytes.
func fuzzSeedRecords() []Record {
	return []Record{
		{T: TBuildQueued, Build: &BuildRec{ID: 1, Job: "exp", Owner: "ana", State: "queued"}},
		{T: TBuildStarted, BuildID: 1, NodeName: "pixel-1", Attempt: 1, AtNS: 42},
		{T: TBuildFailover, BuildID: 1, Retries: 1, Reason: "node lost", AtNS: 99},
		{T: TBuildFinished, BuildID: 1, State: "success", AtNS: 1234},
		{T: TNodeOwner, Name: "pixel-1", Owner: "ana"},
		{T: TBuildExpired, BuildID: 1},
		{T: TPeerJoined, Peer: &PeerRec{Name: "eu-west", URL: "http://eu-west:9090"}},
		{T: TPeerLeft, Name: "eu-west"},
	}
}

// walBytes assembles a complete WAL image of JSON frames: a v1 header
// plus one frame per record — the pre-upgrade fixture the fuzzer
// mutates.
func walBytes(t testing.TB, recs []Record) []byte {
	t.Helper()
	buf := bytes.NewBuffer(walHeaderV1(1))
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(nil, payload))
	}
	return buf.Bytes()
}

// walBytesBinary assembles a WAL image of binary frames — what Append
// writes today.
func walBytesBinary(t testing.TB, recs []Record) []byte {
	t.Helper()
	buf := bytes.NewBuffer(walHeader(1))
	for _, rec := range recs {
		payload, err := encodeRecord(&rec)
		if err != nil {
			t.Fatalf("encoding %s: %v", rec.T, err)
		}
		buf.Write(frame(nil, payload))
	}
	return buf.Bytes()
}

// walBytesMixed interleaves JSON and binary frames under a v2 header —
// the log shape a server upgraded mid-history leaves behind.
func walBytesMixed(t testing.TB, recs []Record) []byte {
	t.Helper()
	buf := bytes.NewBuffer(walHeader(1))
	for i, rec := range recs {
		var payload []byte
		if i%2 == 0 {
			var err error
			payload, err = json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			payload, err = encodeRecord(&rec)
			if err != nil {
				t.Fatalf("encoding %s: %v", rec.T, err)
			}
		}
		buf.Write(frame(nil, payload))
	}
	return buf.Bytes()
}

// FuzzScanRecords hammers the frame decoder directly: whatever bytes
// land in a WAL body, scanRecords must return without panicking, report
// a valid offset within bounds, and stop at the first corrupt frame —
// the exact behavior crash-recovery replay depends on.
func FuzzScanRecords(f *testing.F) {
	full := walBytes(f, fuzzSeedRecords())
	f.Add(full)
	// Torn tail: a frame cut mid-payload.
	f.Add(full[:len(full)-3])
	// Flipped payload byte: checksum mismatch mid-log.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// Header only, and raw garbage.
	f.Add(walHeader(1))
	f.Add([]byte("BLWAL\x01garbagegarbage"))
	// Binary frames: pristine, torn mid-frame, and with a corrupted
	// TLV body whose CRC was fixed up (the decoder, not the checksum,
	// must reject it).
	bin := walBytesBinary(f, fuzzSeedRecords())
	f.Add(bin)
	f.Add(bin[:len(bin)-4])
	binFlip := append([]byte(nil), bin...)
	binFlip[len(binFlip)-2] ^= 0x20
	f.Add(binFlip)
	// Mixed v1/v2 frames in one log — the mid-upgrade shape.
	f.Add(walBytesMixed(f, fuzzSeedRecords()))

	f.Fuzz(func(t *testing.T, data []byte) {
		if int64(len(data)) < walHeaderLen {
			return
		}
		recs, valid := scanRecords(data, walHeaderLen)
		if valid < walHeaderLen || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of bounds [%d, %d]", valid, walHeaderLen, len(data))
		}
		// Every returned record round-trips through the same scan of
		// just the valid prefix: the truncation point must be
		// self-consistent, or recovery-then-reopen would diverge.
		again, validAgain := scanRecords(data[:valid], walHeaderLen)
		if len(again) != len(recs) || validAgain != valid {
			t.Fatalf("rescan of valid prefix: %d records to offset %d, first scan found %d to %d",
				len(again), validAgain, len(recs), valid)
		}
	})
}

// FuzzOpenCorruptWAL goes one level up: a WAL file with arbitrary
// contents must never panic Open. Either the store opens (replaying the
// valid prefix and truncating the rest) or Open reports a typed error —
// both acceptable; a crash is not.
func FuzzOpenCorruptWAL(f *testing.F) {
	full := walBytes(f, fuzzSeedRecords())
	f.Add(full)
	f.Add(full[:len(full)-5])
	truncHdr := append([]byte(nil), full[:3]...)
	f.Add(truncHdr)
	f.Add([]byte{})
	zeroed := append([]byte(nil), full...)
	for i := int(walHeaderLen); i < len(zeroed); i += 7 {
		zeroed[i] = 0
	}
	f.Add(zeroed)
	// Binary and mixed logs, pristine and damaged the same ways.
	bin := walBytesBinary(f, fuzzSeedRecords())
	f.Add(bin)
	f.Add(bin[:len(bin)-5])
	binZero := append([]byte(nil), bin...)
	for i := int(walHeaderLen); i < len(binZero); i += 5 {
		binZero[i] = 0
	}
	f.Add(binZero)
	f.Add(walBytesMixed(f, fuzzSeedRecords()))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return // typed rejection is fine; only a panic is a bug
		}
		// The surviving store must be appendable and reopenable: the
		// torn tail was truncated, so a fresh record lands on a clean
		// boundary. (No fsync — durability is not what this fuzzer
		// checks, and it would dominate the exec budget.)
		st.Append(Record{T: TBuildExpired, BuildID: 7})
		st.Close()
		if st2, err := Open(dir); err == nil {
			st2.Close()
		}
	})
}

// FuzzRecordCodec checks the two directions of the one field listing
// against each other: any payload the decoder accepts re-encodes
// canonically (encoding what that decodes to gives the same bytes) and
// decodes to the same Record. Seeds are the vocabulary as written plus
// the shapes only a foreign writer produces — fields reversed, unknown
// fields interleaved, every field repeated.
func FuzzRecordCodec(f *testing.F) {
	future := splitFields(f, futureFields())
	for _, rec := range codecVocabulary() {
		payload, err := encodeRecord(&rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(withMarker(reverseFields(f, "record", payload[1:])))
		var wedged []tlvField
		for i, fld := range splitFields(f, payload[1:]) {
			wedged = append(wedged, future[i%len(future)], fld)
		}
		f.Add(withMarker(joinFields(wedged)))
		f.Add(append(payload, payload[1:]...))
	}

	tabled := func(state string) bool {
		_, ok := indexByState[state]
		return state == "" || ok
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		first, err := decode(payload)
		if err != nil {
			return
		}
		canonical, err := encodeRecord(&first)
		if err != nil {
			// The retired raw-string state fields stay readable, so the
			// decoder can produce the one thing the encoder refuses.
			if !tabled(first.State) || first.Build != nil && !tabled(first.Build.State) {
				return
			}
			t.Fatalf("decoded %+v does not re-encode: %v", first, err)
		}
		second, err := decode(canonical)
		if err != nil {
			t.Fatalf("canonical form %x of %x does not decode: %v", canonical, payload, err)
		}
		again, err := encodeRecord(&second)
		if err != nil || !bytes.Equal(again, canonical) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x (%v)", canonical, again, err)
		}
		// Compared as the other codec sees them (an empty params map and
		// an absent one are the same record). JSON refuses only NaN,
		// which a fixed64 field can hold and which equals nothing.
		if want, err := json.Marshal(first); err == nil {
			if got, _ := json.Marshal(second); !bytes.Equal(got, want) {
				t.Fatalf("round trip changed the record:\n first  %s\n second %s", want, got)
			}
		}
	})
}
