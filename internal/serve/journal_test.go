package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// journalDir opens a journal in a fresh temp dir with the given config
// overrides applied on top of test-friendly defaults.
func openTestJournal(t *testing.T, cfg JournalConfig) *Journal {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	jl, err := OpenJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

func jobRec(id string, seq int64, count int) JobRecord {
	return JobRecord{
		ID:          id,
		Seq:         seq,
		Spec:        JobSpec{Type: TypeSample, Count: count, Seed: seq, Workers: 1},
		State:       JobQueued,
		SubmittedMS: 1000 + seq,
	}
}

// Records appended before a clean close replay back exactly: accepted specs,
// progress high-water marks, and terminal statuses fold into per-job state.
func TestJournalAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})

	a := jobRec("job-000001", 1, 20)
	b := jobRec("job-000002", 2, 30)
	for _, rec := range []journalRecord{
		{T: recAccepted, Job: &a},
		{T: recProgress, ID: a.ID, N: 5},
		{T: recAccepted, Job: &b},
		{T: recProgress, ID: a.ID, N: 12},
		{T: recProgress, ID: a.ID, N: 9}, // stale mark must not regress the high water
		{T: recTerminal, Job: &JobRecord{
			ID: b.ID, Seq: 2, Spec: b.Spec, State: JobDone,
			Result: &JobResult{Samples: 30}, Durable: 30,
			Rows:        []Sample{{Index: 0, Node: 7, Steps: 3, Cost: 11}},
			SubmittedMS: 1002, StartedMS: 1003, FinishedMS: 1004,
		}},
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	defer re.Close()
	recs, seq := re.Recovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2: %+v", len(recs), recs)
	}
	if seq != 2 {
		t.Fatalf("recovered seq %d, want 2", seq)
	}
	ra, rb := recs[0], recs[1]
	if ra.ID != a.ID || ra.State.Terminal() || ra.Durable != 12 {
		t.Fatalf("job a folded wrong: %+v", ra)
	}
	if ra.Spec != a.Spec {
		t.Fatalf("job a spec mangled: %+v != %+v", ra.Spec, a.Spec)
	}
	if rb.ID != b.ID || rb.State != JobDone || rb.Result == nil || rb.Result.Samples != 30 {
		t.Fatalf("job b folded wrong: %+v", rb)
	}
	if len(rb.Rows) != 1 || rb.Rows[0].Node != 7 || rb.Rows[0].Cost != 11 {
		t.Fatalf("job b rows mangled: %+v", rb.Rows)
	}
	if st := re.Stats(); st.Replayed == 0 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// liveSegment returns the single segment file the journal keeps after a
// clean close + compaction.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments(%s): %v (%d found)", dir, err, len(segs))
	}
	return segs[len(segs)-1]
}

// A torn tail — the partial frame a crash leaves mid-write — ends replay at
// the last whole frame; everything before it is trusted.
func TestJournalTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	a := jobRec("job-000001", 1, 20)
	if err := jl.append(journalRecord{T: recAccepted, Job: &a}); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{T: recProgress, ID: a.ID, N: 7}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial header, as if the process died mid-append.
	f, err := os.OpenFile(liveSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	re := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	defer re.Close()
	recs, _ := re.Recovered()
	if len(recs) != 1 || recs[0].Durable != 7 {
		t.Fatalf("recovered %+v, want the one pre-tear job at durable=7", recs)
	}
	if st := re.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count %d, want 1", st.Corrupt)
	}
}

// A CRC-valid snapshot that lists one id twice replays to one job, and boot
// compaction writes that job into the new snapshot once.
func TestJournalSnapshotDuplicateIDReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	a, b := jobRec("job-000001", 1, 20), jobRec("job-000002", 2, 30)
	payload, err := json.Marshal(journalRecord{T: recSnapshot, Jobs: []JobRecord{a, b, a}, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	if _, err := writeFrame(&seg, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.wal"), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ { // the second boot replays the compacted snapshot
		jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
		recs, _ := jl.Recovered()
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].ID != a.ID || recs[1].ID != b.ID {
			t.Fatalf("boot %d recovered %d records %+v, want %s then %s once each", boot, len(recs), recs, a.ID, b.ID)
		}
	}
}

// A torn frame whose length field points past the end of the segment stops
// replay without allocating the claimed payload.
func TestJournalTornLengthAllocatesNothing(t *testing.T) {
	a := jobRec("job-000001", 1, 20)
	payload, err := json.Marshal(journalRecord{T: recAccepted, Job: &a})
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	if _, err := writeFrame(&seg, payload); err != nil {
		t.Fatal(err)
	}
	seg.Write(binary.LittleEndian.AppendUint32(nil, maxFrame)) // length
	seg.Write([]byte{0, 0, 0, 0, '{', '"', 't'})               // CRC, torn payload
	path := filepath.Join(t.TempDir(), "seg-000001.wal")
	if err := os.WriteFile(path, seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st := newReplayState()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	applied, corrupt, err := replaySegment(path, st)
	runtime.ReadMemStats(&after)
	if err != nil || applied != 1 || !corrupt {
		t.Fatalf("replay = %d applied, corrupt %v, err %v; want 1, true, nil", applied, corrupt, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("replay allocated %d B for a torn %d-byte frame, want < 1 MiB", alloc, maxFrame)
	}
}

// A checksum mismatch mid-segment stops replay there: the frames before the
// corruption survive, the frames after it are dropped (they may depend on
// the corrupted one).
func TestJournalChecksumCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	a := jobRec("job-000001", 1, 20)
	for _, rec := range []journalRecord{
		{T: recAccepted, Job: &a},
		{T: recProgress, ID: a.ID, N: 4},
		{T: recProgress, ID: a.ID, N: 9},
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the third frame (snapshot, accepted, N=4,
	// then N=9): walk the frame headers to find its offset.
	seg := liveSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for skip := 0; skip < 3; skip++ { // skip snapshot + accepted + first progress
		n := binary.LittleEndian.Uint32(buf[off : off+4])
		off += 8 + int(n)
	}
	buf[off+8] ^= 0xff
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	defer re.Close()
	recs, _ := re.Recovered()
	if len(recs) != 1 || recs[0].Durable != 4 {
		t.Fatalf("recovered %+v, want durable=4 (the pre-corruption mark)", recs)
	}
	if st := re.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count %d, want 1", st.Corrupt)
	}
}

// Rotation keeps the directory bounded: with a tiny segment threshold and a
// snapshot source attached, many appends trigger compactions and the journal
// still replays to the snapshot state.
func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 2048})
	a := jobRec("job-000001", 1, 20)
	var hi int
	jl.SetSnapshot(func() ([]JobRecord, int64) {
		rec := a
		rec.Durable = hi
		return []JobRecord{rec}, 1
	})
	if err := jl.append(journalRecord{T: recAccepted, Job: &a}); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 400; n++ {
		hi = n
		if err := jl.append(journalRecord{T: recProgress, ID: a.ID, N: n}); err != nil {
			t.Fatal(err)
		}
	}
	st := jl.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after 400 appends at 2KiB segments: %+v", st)
	}
	if st.Segments != 1 {
		t.Fatalf("segments on disk %d, want 1 (compaction deletes history)", st.Segments)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir holds %d files, want 1", len(ents))
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncOff})
	defer re.Close()
	recs, seq := re.Recovered()
	if len(recs) != 1 || recs[0].Durable != 400 || seq != 1 {
		t.Fatalf("post-rotation replay: %+v seq=%d, want durable=400 seq=1", recs, seq)
	}
}

// All three fsync policies accept appends and replay identically; the
// interval policy's timer goroutine syncs without racing Close.
func TestJournalFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			jl := openTestJournal(t, JournalConfig{Dir: dir, Fsync: pol, FsyncEvery: time.Millisecond})
			a := jobRec("job-000001", 1, 10)
			if err := jl.append(journalRecord{T: recAccepted, Job: &a}); err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 50; n++ {
				if err := jl.append(journalRecord{T: recProgress, ID: a.ID, N: n}); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncInterval {
				time.Sleep(5 * time.Millisecond) // let the timer observe a sync
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}
			st := jl.Stats()
			if pol == FsyncAlways && st.Fsyncs < 51 {
				t.Fatalf("always policy synced %d times for 51 appends", st.Fsyncs)
			}
			re := openTestJournal(t, JournalConfig{Dir: dir, Fsync: pol})
			defer re.Close()
			recs, _ := re.Recovered()
			if len(recs) != 1 || recs[0].Durable != 50 {
				t.Fatalf("replay under %s: %+v", pol, recs)
			}
		})
	}

	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
	if p, err := ParseFsyncPolicy(""); err != nil || p != FsyncInterval {
		t.Fatalf("empty policy: %v %v", p, err)
	}
}

// Appends after Close fail loudly and are counted, never silently dropped.
func TestJournalClosedAppendErrors(t *testing.T) {
	jl := openTestJournal(t, JournalConfig{Fsync: FsyncOff})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	a := jobRec("job-000001", 1, 10)
	if err := jl.append(journalRecord{T: recAccepted, Job: &a}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if st := jl.Stats(); st.AppendErrs != 1 {
		t.Fatalf("append errors %d, want 1", st.AppendErrs)
	}
}

// Segment filenames parse and sort numerically, not lexically.
func TestJournalListSegments(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"seg-000010.wal", "seg-000002.wal", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, maxIdx, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "seg-000002.wal"), filepath.Join(dir, "seg-000010.wal")}
	if fmt.Sprint(segs) != fmt.Sprint(want) || maxIdx != 10 {
		t.Fatalf("segs %v maxIdx %d, want %v 10", segs, maxIdx, want)
	}
}
