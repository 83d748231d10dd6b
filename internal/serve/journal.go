package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The job journal is the service's durability layer: an append-only,
// checksummed, segment-rotated log of job lifecycle events. It records the
// minimum the per-job determinism contract needs for recovery — the accepted
// normalized spec, the count of samples durably emitted, and the terminal
// status (with its sample rows) — never walk state: a crashed job is resumed
// by re-running its deterministic pipeline, not by restoring walkers.
//
// On-disk format: each segment (seg-NNNNNN.wal) is a sequence of frames
//
//	[4B little-endian payload length][4B CRC32-IEEE of payload][payload]
//
// where the payload is one JSON journalRecord. Replay verifies every frame's
// checksum and stops at the first torn or corrupt frame — everything before
// it is trusted, everything after it is not (counted in Stats().Corrupt).
//
// Compaction keeps replay bounded: whenever a segment fills past
// SegmentBytes, the journal starts a new segment whose first record is a
// snapshot of every retained job's durable state (provided by the manager),
// fsyncs it, and deletes the older segments. Opening a journal performs the
// same snapshot+delete with the replayed state, so a journal directory
// always holds the segments since the last snapshot and nothing else.

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy string

// Fsync policies, in decreasing durability and increasing throughput:
// FsyncAlways syncs after every append (a crash loses nothing that was
// acknowledged); FsyncInterval flushes every append to the OS and syncs on a
// timer (a process crash loses nothing, a power loss loses at most one
// interval); FsyncOff flushes to the OS only (power loss can lose anything
// the kernel had not written back). All policies sync on Close, so a
// graceful drain is always fully durable.
const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncOff      FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy string ("" selects FsyncInterval).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("serve: unknown fsync policy %q (want always, interval, or off)", s)
}

// JournalConfig configures a job journal. Zero fields select defaults.
type JournalConfig struct {
	// Dir is the journal directory (required). Created if missing.
	Dir string
	// Fsync is the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval timer period (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes is the rotation threshold: when the live segment grows
	// past it, the journal snapshots and compacts (default 8 MiB).
	SegmentBytes int64
}

func (c JournalConfig) withDefaults() (JournalConfig, error) {
	if c.Dir == "" {
		return c, errors.New("serve: journal needs a directory")
	}
	p, err := ParseFsyncPolicy(string(c.Fsync))
	if err != nil {
		return c, err
	}
	c.Fsync = p
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	return c, nil
}

// JobRecord is a job's durable state as the journal sees it: the accepted
// normalized spec plus either a progress high-water mark (incomplete jobs)
// or the terminal status with its sample rows (finished jobs). It is what
// replay hands back to the manager for rehydration and resume.
type JobRecord struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq,omitempty"`
	// Digest is the job's canonical content address (SpecDigest over the
	// normalized spec): the durable identity of the job's *result*. At boot
	// it re-seeds the result cache from rehydrated terminal records without
	// re-deriving the normalization environment.
	Digest string  `json:"digest,omitempty"`
	Spec   JobSpec `json:"spec"`
	// Draws is the sampler draw version (core.DrawVersion) the job's
	// stream was drawn under; records written before versioning read 0.
	// Recovery resumes an incomplete job only under its own version, and
	// computes a missing digest only for a record of the running version.
	Draws int `json:"draws,omitempty"`
	// State is a terminal state for finished jobs; anything else marks the
	// job incomplete (replay resumes it regardless of whether it was queued
	// or mid-run at the crash — the deterministic re-run covers both).
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	Reason string   `json:"reason,omitempty"`
	// Durable is the count of samples recorded as durably emitted. On
	// resume the re-run suppresses journal appends for the first Durable
	// samples — they are already on disk.
	Durable int        `json:"durable,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	// Rows are the full streamed sample rows of a terminal job, so a
	// rehydrated record replays its NDJSON stream bit-identically with zero
	// new walk steps.
	Rows        []Sample `json:"rows,omitempty"`
	SubmittedMS int64    `json:"submitted_ms,omitempty"`
	StartedMS   int64    `json:"started_ms,omitempty"`
	FinishedMS  int64    `json:"finished_ms,omitempty"`
}

// Journal record types.
const (
	recAccepted = "accepted" // job admitted: id, seq, normalized spec
	recProgress = "progress" // durable-sample high-water mark: id, n
	recTerminal = "terminal" // terminal status: full JobRecord
	recEvicted  = "evicted"  // retention sweeper dropped a terminal record
	recSnapshot = "snapshot" // full state; starts every segment
)

// journalRecord is the JSON payload of one journal frame.
type journalRecord struct {
	T    string      `json:"t"`
	Job  *JobRecord  `json:"job,omitempty"`  // accepted, terminal
	ID   string      `json:"id,omitempty"`   // progress, evicted
	N    int         `json:"n,omitempty"`    // progress: durable count
	Jobs []JobRecord `json:"jobs,omitempty"` // snapshot
	Seq  int64       `json:"seq,omitempty"`  // snapshot: id-sequence high water
}

// JournalStats is an atomic snapshot of the journal's meters.
type JournalStats struct {
	Appends    int64 // records appended this process
	Bytes      int64 // bytes appended this process
	Fsyncs     int64 // explicit syncs performed
	Rotations  int64 // segment rotations (each one a compaction)
	AppendErrs int64 // appends dropped by I/O errors or a closed journal
	Replayed   int64 // records replayed at open
	Corrupt    int64 // torn/corrupt frames found at open (replay stops there)
	Segments   int   // segments currently on disk
}

// errJournalClosed is returned by appends after Close.
var errJournalClosed = errors.New("serve: journal closed")

// maxFrame bounds a frame payload; longer lengths mark a corrupt frame.
const maxFrame = 64 << 20

// Journal is an append-only, checksummed, segment-rotated job journal.
// Appends are safe for concurrent use. Callers must never append while
// holding manager or job locks: rotation calls back into the manager's
// snapshot function, which takes them.
type Journal struct {
	cfg JournalConfig

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	size   int64
	segIdx int
	segs   []string // live segment paths, oldest first
	dirty  bool
	closed bool
	// snapshotFn supplies the retained-job state written at rotation; nil
	// (before the manager attaches) defers compaction to the next rotation.
	snapshotFn func() ([]JobRecord, int64)

	// Replayed state, consumed once by the manager at construction.
	recovered    []JobRecord
	recoveredSeq int64

	appends    atomic.Int64
	bytes      atomic.Int64
	fsyncs     atomic.Int64
	rotations  atomic.Int64
	appendErrs atomic.Int64
	replayed   atomic.Int64
	corrupt    atomic.Int64
	fsyncDur   *Histogram

	stopSync chan struct{}
	syncWG   sync.WaitGroup
}

// OpenJournal opens (or creates) the journal in cfg.Dir, replays every
// segment in order — stopping at the first torn or corrupt frame — and
// compacts: the recovered state is snapshotted into a fresh segment and the
// replayed segments are deleted. The recovered jobs are available through
// Recovered until a manager consumes them.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	jl := &Journal{
		cfg: cfg,
		// fsync latency buckets: 50µs .. 1s, the span from NVMe to a
		// contended spinning disk.
		fsyncDur: NewHistogram(0.00005, 0.0001, 0.00025, 0.0005, 0.001,
			0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1),
		stopSync: make(chan struct{}),
	}

	old, maxIdx, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	st := newReplayState()
	for _, seg := range old {
		n, corrupt, err := replaySegment(seg, st)
		jl.replayed.Add(n)
		if err != nil {
			return nil, err
		}
		if corrupt {
			// Nothing after a bad frame is trusted — including later
			// segments, which may depend on records we just lost.
			jl.corrupt.Add(1)
			break
		}
	}
	jl.recovered, jl.recoveredSeq = st.records(), st.seq

	// Boot compaction: snapshot the recovered state into a new segment,
	// make it durable, then drop the replayed segments.
	jl.segIdx = maxIdx + 1
	if err := jl.openSegmentLocked(); err != nil {
		return nil, err
	}
	if err := jl.writeSnapshotLocked(jl.recovered, jl.recoveredSeq); err != nil {
		jl.f.Close()
		return nil, err
	}
	for _, seg := range old {
		os.Remove(seg)
	}
	syncDir(cfg.Dir)

	if cfg.Fsync == FsyncInterval {
		jl.syncWG.Add(1)
		go jl.syncLoop()
	}
	return jl, nil
}

// Dir returns the journal directory.
func (jl *Journal) Dir() string { return jl.cfg.Dir }

// Recovered returns the replayed job state and the id-sequence high water.
// The slice is owned by the caller (the manager consumes it at boot).
func (jl *Journal) Recovered() ([]JobRecord, int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	recs, seq := jl.recovered, jl.recoveredSeq
	jl.recovered = nil
	return recs, seq
}

// SetSnapshot attaches the live-state source used to compact at rotation.
func (jl *Journal) SetSnapshot(fn func() ([]JobRecord, int64)) {
	jl.mu.Lock()
	jl.snapshotFn = fn
	jl.mu.Unlock()
}

// Stats returns an atomic snapshot of the journal meters.
func (jl *Journal) Stats() JournalStats {
	jl.mu.Lock()
	segs := len(jl.segs)
	jl.mu.Unlock()
	return JournalStats{
		Appends:    jl.appends.Load(),
		Bytes:      jl.bytes.Load(),
		Fsyncs:     jl.fsyncs.Load(),
		Rotations:  jl.rotations.Load(),
		AppendErrs: jl.appendErrs.Load(),
		Replayed:   jl.replayed.Load(),
		Corrupt:    jl.corrupt.Load(),
		Segments:   segs,
	}
}

// append writes one record, applies the fsync policy, and rotates the
// segment when it has grown past the threshold.
func (jl *Journal) append(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		jl.appendErrs.Add(1)
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		jl.appendErrs.Add(1)
		return errJournalClosed
	}
	n, err := writeFrame(jl.w, payload)
	if err != nil {
		jl.appendErrs.Add(1)
		return err
	}
	jl.size += int64(n)
	jl.dirty = true
	jl.appends.Add(1)
	jl.bytes.Add(int64(n))
	// Flush to the OS on every append regardless of policy: a kill -9 then
	// loses nothing (the kernel still has the write); only the fsync —
	// power-loss durability — is policy-gated.
	if err := jl.w.Flush(); err != nil {
		jl.appendErrs.Add(1)
		return err
	}
	if jl.cfg.Fsync == FsyncAlways {
		if err := jl.syncLocked(); err != nil {
			jl.appendErrs.Add(1)
			return err
		}
	}
	if jl.size >= jl.cfg.SegmentBytes {
		jl.rotateLocked()
	}
	return nil
}

// Sync forces buffered appends to stable storage (a no-op when clean).
func (jl *Journal) Sync() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed || !jl.dirty {
		return nil
	}
	if err := jl.w.Flush(); err != nil {
		return err
	}
	return jl.syncLocked()
}

// Close flushes, fsyncs (whatever the policy — a graceful drain is always
// fully durable), and closes the journal. Later appends fail.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	if jl.closed {
		jl.mu.Unlock()
		return nil
	}
	jl.closed = true
	close(jl.stopSync)
	err := jl.w.Flush()
	if serr := jl.f.Sync(); err == nil {
		err = serr
	}
	if cerr := jl.f.Close(); err == nil {
		err = cerr
	}
	jl.mu.Unlock()
	jl.syncWG.Wait()
	return err
}

// syncLocked fsyncs the live segment, observing the latency. mu held.
func (jl *Journal) syncLocked() error {
	t0 := time.Now()
	if err := jl.f.Sync(); err != nil {
		return err
	}
	jl.fsyncDur.Observe(time.Since(t0))
	jl.fsyncs.Add(1)
	jl.dirty = false
	return nil
}

// syncLoop is the FsyncInterval timer goroutine.
func (jl *Journal) syncLoop() {
	defer jl.syncWG.Done()
	t := time.NewTicker(jl.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-jl.stopSync:
			return
		case <-t.C:
			jl.Sync()
		}
	}
}

// rotateLocked starts a new segment headed by a state snapshot and deletes
// the older segments. Compaction is skipped (plain rotation) until a
// snapshot source is attached. Failures leave the current segment in place —
// rotation is an optimization, never a correctness requirement. mu held.
func (jl *Journal) rotateLocked() {
	if jl.snapshotFn == nil {
		return
	}
	snap, seq := jl.snapshotFn()
	jl.w.Flush()
	jl.f.Sync()
	old, oldFile := jl.segs, jl.f
	jl.segIdx++
	if err := jl.openSegmentLocked(); err != nil {
		jl.segIdx--
		jl.segs, jl.f = old, oldFile
		jl.appendErrs.Add(1)
		return
	}
	if err := jl.writeSnapshotLocked(snap, seq); err != nil {
		jl.appendErrs.Add(1)
		return
	}
	oldFile.Close()
	// The snapshot is durable; the history it summarizes can go.
	for _, seg := range old {
		os.Remove(seg)
	}
	syncDir(jl.cfg.Dir)
	jl.rotations.Add(1)
}

// openSegmentLocked creates segment segIdx and points the writer at it.
func (jl *Journal) openSegmentLocked() error {
	path := filepath.Join(jl.cfg.Dir, fmt.Sprintf("seg-%06d.wal", jl.segIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	jl.f = f
	jl.w = bufio.NewWriter(f)
	jl.size = 0
	jl.segs = []string{path}
	return nil
}

// writeSnapshotLocked writes and fsyncs a snapshot record — the head of
// every segment must be durable before older segments may be deleted.
func (jl *Journal) writeSnapshotLocked(jobs []JobRecord, seq int64) error {
	payload, err := json.Marshal(journalRecord{T: recSnapshot, Jobs: jobs, Seq: seq})
	if err != nil {
		return err
	}
	n, err := writeFrame(jl.w, payload)
	if err != nil {
		return err
	}
	jl.size += int64(n)
	jl.bytes.Add(int64(n))
	if err := jl.w.Flush(); err != nil {
		return err
	}
	return jl.syncLocked()
}

// writeFrame writes one length+CRC framed payload.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// replayState folds journal records into per-job durable state.
type replayState struct {
	jobs  map[string]*JobRecord
	order []string
	seq   int64
}

func newReplayState() *replayState {
	return &replayState{jobs: make(map[string]*JobRecord)}
}

func (st *replayState) apply(rec journalRecord) {
	switch rec.T {
	case recSnapshot:
		st.jobs = make(map[string]*JobRecord, len(rec.Jobs))
		st.order = st.order[:0]
		for i := range rec.Jobs {
			r := rec.Jobs[i]
			if _, dup := st.jobs[r.ID]; dup {
				continue // an id listed twice keeps its first entry
			}
			st.jobs[r.ID] = &r
			st.order = append(st.order, r.ID)
			if r.Seq > st.seq {
				st.seq = r.Seq
			}
		}
		if rec.Seq > st.seq {
			st.seq = rec.Seq
		}
	case recAccepted:
		if rec.Job == nil {
			return
		}
		r := *rec.Job
		if _, ok := st.jobs[r.ID]; !ok {
			st.order = append(st.order, r.ID)
		}
		st.jobs[r.ID] = &r
		if r.Seq > st.seq {
			st.seq = r.Seq
		}
	case recProgress:
		if j, ok := st.jobs[rec.ID]; ok && rec.N > j.Durable {
			j.Durable = rec.N
		}
	case recTerminal:
		if rec.Job == nil {
			return
		}
		j, ok := st.jobs[rec.Job.ID]
		if !ok {
			// Terminal for a job whose accepted record was lost to
			// corruption: keep it anyway — a terminal record is
			// self-contained.
			r := *rec.Job
			st.jobs[r.ID] = &r
			st.order = append(st.order, r.ID)
			if r.Seq > st.seq {
				st.seq = r.Seq // or a new job would reuse its id
			}
			return
		}
		*j = *rec.Job
	case recEvicted:
		if _, ok := st.jobs[rec.ID]; ok {
			delete(st.jobs, rec.ID)
			for i, id := range st.order {
				if id == rec.ID {
					st.order = append(st.order[:i], st.order[i+1:]...)
					break
				}
			}
		}
	}
}

// records returns the folded state in submission order.
func (st *replayState) records() []JobRecord {
	out := make([]JobRecord, 0, len(st.jobs))
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// replaySegment reads one segment into st. It returns the number of records
// applied and whether it stopped at a torn or corrupt frame (expected at the
// tail after a crash; never an error).
func replaySegment(path string, st *replayState) (int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	left := fi.Size() // bytes not yet read
	r := bufio.NewReader(f)
	var applied int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF at a frame boundary ends the segment; a partial
			// header is a torn tail.
			return applied, !errors.Is(err, io.EOF), nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		left -= int64(len(hdr))
		// A length past the end of the file is a torn frame: reject it
		// before allocating the payload.
		if n > maxFrame || int64(n) > left {
			return applied, true, nil
		}
		left -= int64(n)
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return applied, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return applied, true, nil
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return applied, true, nil
		}
		st.apply(rec)
		applied++
	}
}

// listSegments returns the segment paths in index order and the max index.
func listSegments(dir string) ([]string, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type seg struct {
		idx  int
		path string
	}
	var segs []seg
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &idx); err == nil {
			segs = append(segs, seg{idx, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	paths := make([]string, len(segs))
	maxIdx := 0
	for i, s := range segs {
		paths[i] = s.path
		if s.idx > maxIdx {
			maxIdx = s.idx
		}
	}
	return paths, maxIdx, nil
}

// syncDir fsyncs a directory so segment creates/deletes are durable.
// Best-effort: not every platform supports it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
