package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzNormalizeSpec checks the admission step daemon and coordinator share:
// for any JSON-decodable spec NormalizeSpec accepts, normalizing again is a
// no-op and SpecDigest is stable under renormalization — the property that
// lets a coordinator re-dispatch a recorded spec, and lets a worker
// renormalize a coordinator-normalized one, without moving its digest. The
// seed corpus lives in testdata/fuzz/FuzzNormalizeSpec; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzNormalizeSpec -fuzztime 30s ./internal/serve
func FuzzNormalizeSpec(f *testing.F) {
	envs := []NormEnv{
		{GraphID: "g", NumNodes: 300, DefaultStart: 7, DefaultWalkLen: 15, MaxWorkersPerJob: 4},
		// A backend without a ground-truth view has no default start.
		{GraphID: "g", NumNodes: 300, DefaultStart: -1, DefaultWalkLen: 15, MaxWorkersPerJob: 1},
	}
	f.Fuzz(func(t *testing.T, data string) {
		var spec JobSpec
		if json.Unmarshal([]byte(data), &spec) != nil {
			return
		}
		for _, env := range envs {
			norm, err := NormalizeSpec(spec, env)
			if err != nil {
				continue
			}
			again, err := NormalizeSpec(norm, env)
			if err != nil {
				t.Fatalf("renormalizing %+v: %v", norm, err)
			}
			if !reflect.DeepEqual(again, norm) {
				t.Fatalf("not idempotent: %+v -> %+v", norm, again)
			}
			if d1, d2 := SpecDigest(env, norm), SpecDigest(env, again); d1 != d2 {
				t.Fatalf("digest moved under renormalization: %s -> %s for %+v", d1, d2, norm)
			}
		}
	})
}

// FuzzReplaySegment feeds arbitrary bytes to journal replay as one segment
// file. Replay must never panic; it must apply exactly the frames before the
// first torn or corrupt one (replaying just that prefix yields the same
// state, and the segment is flagged corrupt iff bytes remain after it); and
// records() must list each job id once. Run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzReplaySegment -fuzztime 30s ./internal/serve
func FuzzReplaySegment(f *testing.F) {
	frame := func(rec journalRecord) []byte {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		writeFrame(&buf, payload)
		return buf.Bytes()
	}
	a, b := jobRec("job-000001", 1, 20), jobRec("job-000002", 2, 30)
	done := b
	done.State, done.Result = JobDone, &JobResult{Samples: 30}
	valid := bytes.Join([][]byte{
		frame(journalRecord{T: recSnapshot, Seq: 0}),
		frame(journalRecord{T: recAccepted, Job: &a}),
		frame(journalRecord{T: recProgress, ID: a.ID, N: 5}),
		frame(journalRecord{T: recAccepted, Job: &b}),
		frame(journalRecord{T: recTerminal, Job: &done}),
		frame(journalRecord{T: recEvicted, ID: b.ID}),
	}, nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	badCRC := bytes.Clone(valid)
	badCRC[len(frame(journalRecord{T: recSnapshot}))+10] ^= 0xff // inside the second payload
	f.Add(badCRC)
	oversized := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	f.Add(append(oversized, valid...))
	f.Add(frame(journalRecord{T: recSnapshot, Jobs: []JobRecord{a, b, a}, Seq: 2}))

	path := filepath.Join(f.TempDir(), "seg-000001.wal")
	replay := func(t *testing.T, data []byte) (*replayState, int64, bool) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := newReplayState()
		applied, corrupt, err := replaySegment(path, st)
		if err != nil {
			t.Fatal(err)
		}
		return st, applied, corrupt
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// good is the length of the longest prefix of whole, checksummed,
		// decodable frames: where replay must stop.
		good := 0
		for rest := data[good:]; len(rest) >= 8; rest = data[good:] {
			n := binary.LittleEndian.Uint32(rest[0:4])
			if n > maxFrame || uint64(len(rest)-8) < uint64(n) {
				break
			}
			payload := rest[8 : 8+n]
			var rec journalRecord
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) ||
				json.Unmarshal(payload, &rec) != nil {
				break
			}
			good += 8 + int(n)
		}

		st, applied, corrupt := replay(t, data)
		if corrupt != (good < len(data)) {
			t.Fatalf("corrupt = %v with %d of %d bytes in whole frames", corrupt, good, len(data))
		}
		recs := st.records()
		prefix, prefixApplied, prefixCorrupt := replay(t, data[:good])
		if prefixCorrupt || prefixApplied != applied {
			t.Fatalf("prefix replay applied %d (corrupt %v), full replay %d", prefixApplied, prefixCorrupt, applied)
		}
		if !reflect.DeepEqual(prefix.records(), recs) || prefix.seq != st.seq {
			t.Fatal("state differs from replaying only the frames before the first bad one")
		}
		seen := make(map[string]bool, len(recs))
		for _, r := range recs {
			if seen[r.ID] {
				t.Fatalf("records() lists %q twice", r.ID)
			}
			seen[r.ID] = true
		}
	})
}
