// Package journal is the crash-safety substrate under the fingersd
// service layer: an append-only, fsync-on-commit write-ahead log of job
// lifecycle transitions. Each record is one JSONL line wrapped in a
// CRC-carrying envelope, so a torn tail from a kill -9 mid-write is
// detected and skipped rather than poisoning replay; segments rotate at
// a size bound so a long-lived daemon never grows one unbounded file;
// and the replayer is lenient in the spirit of the telemetry package's
// ReadRecordsLenient — every intact record survives, every damaged or
// foreign line becomes a reported skip.
//
// The package knows nothing about the service layer's job semantics: a
// Record carries an opaque Spec payload (the service stores the full
// serializable fingers.JobSpec there) plus the small set of typed
// lifecycle fields replay needs to order and deduplicate transitions.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Event is one lifecycle transition kind. The journal itself treats
// events as opaque strings; these constants name the vocabulary the
// service layer writes.
const (
	// EventSubmitted records admission: the record carries the full job
	// spec, so replay can re-enqueue the job without any other state.
	EventSubmitted = "submitted"
	// EventStarted records a worker picking the job up. A job whose last
	// event is started was running when the process died.
	EventStarted = "started"
	// EventRequeued records a retry: the job re-entered the queue after
	// a transient failure, with the attempt counter advanced.
	EventRequeued = "requeued"
	// EventDone, EventCanceled, EventFailed, and EventDeadline are
	// terminal: replay never resurrects these jobs.
	EventDone     = "done"
	EventCanceled = "canceled"
	EventFailed   = "failed"
	EventDeadline = "deadline_exceeded"
	// EventInterrupted marks a job terminated by the daemon without
	// completing — drain grace expiry, or a crash detected at replay
	// time. Interrupted jobs are resumable: a restart re-enqueues them.
	EventInterrupted = "interrupted"
)

// Record is one journaled lifecycle transition.
type Record struct {
	// Seq is the journal-wide sequence number, assigned by Append;
	// replay orders and deduplicates by it.
	Seq int64 `json:"seq"`
	// Job is the job identifier the transition belongs to.
	Job string `json:"job"`
	// Event is the transition kind (see the Event constants).
	Event string `json:"event"`
	// Attempt is the 1-based attempt counter at the transition.
	Attempt int `json:"attempt,omitempty"`
	// Client is the admitting client's identity, carried so replayed
	// jobs keep their admission attribution.
	Client string `json:"client,omitempty"`
	// At is the wall-clock transition time, RFC 3339 (UTC); replay
	// treats it as informational only — ordering is by Seq.
	At string `json:"at,omitempty"`
	// Err is the failure or cancellation message of a terminal event.
	Err string `json:"err,omitempty"`
	// Spec is the full serialized job spec. The service writes it on
	// every submitted and requeued event so any un-terminal job can be
	// reconstructed from its journal suffix alone.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Skip is one line the replayer rejected: which segment, which 1-based
// line, and why (torn JSON, CRC mismatch, duplicate sequence number).
type Skip struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

// envelope is the on-disk line format: the record's compact JSON bytes
// plus their CRC-32C. Wrapping (rather than embedding a CRC field in
// the record) keeps the checksummed byte range exact: R is stored and
// checked verbatim, immune to field reordering or re-marshaling drift.
type envelope struct {
	CRC uint32          `json:"c"`
	R   json.RawMessage `json:"r"`
}

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options shapes a journal.
type Options struct {
	// MaxSegmentBytes rotates to a fresh segment file once the current
	// one exceeds this size. Default 4 MiB; records never split across
	// segments.
	MaxSegmentBytes int64
	// NoSync disables the per-append fsync. The default (false) syncs
	// on every commit — the durability contract the recovery invariants
	// assume — so NoSync is for tests and throwaway runs only.
	NoSync bool
	// BeforeAppend, when non-nil, runs before each record is written —
	// the fault-injection seam. Returning an error aborts the append
	// (nothing is written); a panic propagates to the caller.
	BeforeAppend func(rec Record) error
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// Journal is an open write-ahead log rooted at one directory.
type Journal struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File
	size    int64
	segIdx  int
	nextSeq int64

	replayed []Record
	skips    []Skip
}

// segName formats the idx'th segment file name. The zero-padded index
// makes lexical order equal numeric order for any plausible count.
func segName(idx int) string { return fmt.Sprintf("journal-%06d.jsonl", idx) }

// segIndex parses a segment file name; ok is false for foreign files.
func segIndex(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "journal-%06d.jsonl", &idx); err != nil {
		return 0, false
	}
	if segName(idx) != name {
		return 0, false
	}
	return idx, true
}

// Segments lists the journal segment files under dir in replay order.
func Segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if _, ok := segIndex(e.Name()); ok {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// Open opens (creating if needed) the journal rooted at dir, replaying
// every existing segment first so appends continue the sequence. The
// replayed records and skips are available via Replayed and Skips.
func Open(dir string, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	recs, skips, err := ReplayDir(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opt: opt, replayed: recs, skips: skips, nextSeq: 1}
	for _, r := range recs {
		if r.Seq >= j.nextSeq {
			j.nextSeq = r.Seq + 1
		}
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		j.segIdx, _ = segIndex(last)
		fi, err := os.Stat(filepath.Join(dir, last))
		if err != nil {
			return nil, err
		}
		j.size = fi.Size()
	} else {
		j.segIdx = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(j.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// Replayed returns the records recovered when the journal was opened,
// in sequence order.
func (j *Journal) Replayed() []Record { return j.replayed }

// Skips returns the lines replay rejected when the journal was opened.
func (j *Journal) Skips() []Skip { return j.skips }

// Append assigns the record its sequence number, writes it as one
// CRC-enveloped JSONL line, and (unless NoSync) fsyncs before
// returning — the write-ahead contract: when Append returns nil, the
// transition survives kill -9. The segment is rotated first when full.
func (j *Journal) Append(rec Record) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, errors.New("journal: closed")
	}
	rec.Seq = j.nextSeq
	if hook := j.opt.BeforeAppend; hook != nil {
		if err := hook(rec); err != nil {
			return 0, fmt.Errorf("journal: append %s/%s: %w", rec.Job, rec.Event, err)
		}
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("journal: marshal: %w", err)
	}
	line, err := json.Marshal(envelope{CRC: crc32.Checksum(body, castagnoli), R: body})
	if err != nil {
		return 0, fmt.Errorf("journal: marshal envelope: %w", err)
	}
	line = append(line, '\n')
	if j.size > 0 && j.size+int64(len(line)) > j.opt.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := j.f.Write(line); err != nil {
		return 0, fmt.Errorf("journal: write: %w", err)
	}
	if !j.opt.NoSync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal: sync: %w", err)
		}
	}
	j.size += int64(len(line))
	j.nextSeq++
	return rec.Seq, nil
}

// rotateLocked closes the current segment and opens the next.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync before rotate: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.segIdx++
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f, j.size = f, 0
	return nil
}

// Close syncs and closes the current segment. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// ReplayDir leniently replays every segment under dir: records are
// collected across segments, deduplicated by sequence number (first
// occurrence wins), and returned sorted by it. A directory with no
// segments replays to nothing. Only directory-level I/O errors are
// fatal; damaged lines — torn tails, CRC mismatches, duplicates,
// foreign content — become Skips.
func ReplayDir(dir string) ([]Record, []Skip, error) {
	segs, err := Segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	var recs []Record
	var skips []Skip
	seen := map[int64]bool{}
	for _, seg := range segs {
		f, err := os.Open(filepath.Join(dir, seg))
		if err != nil {
			return nil, nil, err
		}
		r, s := replaySegment(f, seg, seen)
		f.Close()
		recs = append(recs, r...)
		skips = append(skips, s...)
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	return recs, skips, nil
}

func replaySegment(r io.Reader, name string, seen map[int64]bool) ([]Record, []Skip) {
	var recs []Record
	var skips []Skip
	skip := func(line int, format string, args ...any) {
		skips = append(skips, Skip{File: name, Line: line, Reason: fmt.Sprintf(format, args...)})
	}
	data, err := io.ReadAll(io.LimitReader(r, 1<<30))
	if err != nil {
		skip(0, "read: %v", err)
		return recs, skips
	}
	line := 0
	for len(data) > 0 {
		line++
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			skip(line, "torn or foreign line: %v", err)
			continue
		}
		if len(env.R) == 0 {
			skip(line, "envelope without record body")
			continue
		}
		if got := crc32.Checksum(env.R, castagnoli); got != env.CRC {
			skip(line, "crc mismatch: stored %08x, computed %08x", env.CRC, got)
			continue
		}
		var rec Record
		if err := json.Unmarshal(env.R, &rec); err != nil {
			skip(line, "record body: %v", err)
			continue
		}
		if rec.Seq <= 0 {
			skip(line, "record without sequence number")
			continue
		}
		if seen[rec.Seq] {
			skip(line, "duplicate seq %d", rec.Seq)
			continue
		}
		seen[rec.Seq] = true
		recs = append(recs, rec)
	}
	return recs, skips
}

// Terminal reports whether ev is an event replay never resurrects.
// EventInterrupted is deliberately not terminal here: an interrupted
// job is resumable, and a restart re-enqueues it.
func Terminal(ev string) bool {
	switch ev {
	case EventDone, EventCanceled, EventFailed, EventDeadline:
		return true
	}
	return false
}

// JobState is one job's replayed lifecycle summary.
type JobState struct {
	Job     string
	Event   string // last event observed
	Attempt int    // highest attempt observed
	Client  string
	Err     string
	Spec    json.RawMessage // newest non-empty spec payload
}

// Reduce folds a replayed record stream into per-job final states, in
// submission order (by each job's first record). Records must be in
// sequence order, as ReplayDir returns them.
func Reduce(recs []Record) []JobState {
	byJob := map[string]*JobState{}
	var order []string
	for _, r := range recs {
		st, ok := byJob[r.Job]
		if !ok {
			st = &JobState{Job: r.Job}
			byJob[r.Job] = st
			order = append(order, r.Job)
		}
		st.Event = r.Event
		if r.Attempt > st.Attempt {
			st.Attempt = r.Attempt
		}
		if r.Client != "" {
			st.Client = r.Client
		}
		st.Err = r.Err
		if len(r.Spec) > 0 {
			st.Spec = r.Spec
		}
	}
	out := make([]JobState, 0, len(order))
	for _, id := range order {
		out = append(out, *byJob[id])
	}
	return out
}
