package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, j *Journal, rec Record) int64 {
	t.Helper()
	seq, err := j.Append(rec)
	if err != nil {
		t.Fatalf("append %s/%s: %v", rec.Job, rec.Event, err)
	}
	return seq
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"arch":"fingers","graph":"As","pattern":"tc"}`)
	mustAppend(t, j, Record{Job: "job-000001", Event: EventSubmitted, Attempt: 1, Client: "alice", Spec: spec})
	mustAppend(t, j, Record{Job: "job-000001", Event: EventStarted, Attempt: 1})
	mustAppend(t, j, Record{Job: "job-000002", Event: EventSubmitted, Attempt: 1, Spec: spec})
	mustAppend(t, j, Record{Job: "job-000001", Event: EventDone, Attempt: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skips, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 0 {
		t.Fatalf("clean journal replayed with skips: %+v", skips)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Errorf("record %d seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if recs[0].Client != "alice" || !bytes.Equal(recs[0].Spec, spec) {
		t.Errorf("record 0 lost payload: %+v", recs[0])
	}

	states := Reduce(recs)
	if len(states) != 2 {
		t.Fatalf("reduced to %d jobs, want 2", len(states))
	}
	if states[0].Job != "job-000001" || states[0].Event != EventDone {
		t.Errorf("job 1 state %+v", states[0])
	}
	if states[1].Job != "job-000002" || states[1].Event != EventSubmitted {
		t.Errorf("job 2 state %+v", states[1])
	}
	if !Terminal(states[0].Event) || Terminal(states[1].Event) {
		t.Error("terminality misclassified")
	}
}

// TestReopenContinuesSequence closes and reopens a journal and checks
// sequence numbers continue rather than restart (replay depends on
// global uniqueness).
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "a", Event: EventSubmitted})
	mustAppend(t, j, Record{Job: "a", Event: EventStarted})
	j.Close()

	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j2.Replayed()); got != 2 {
		t.Fatalf("reopen replayed %d records, want 2", got)
	}
	seq := mustAppend(t, j2, Record{Job: "a", Event: EventDone})
	if seq != 3 {
		t.Errorf("post-reopen seq %d, want 3", seq)
	}
	j2.Close()
}

// TestTornTailSkipped truncates the last line mid-record — the shape a
// kill -9 mid-write leaves — and checks replay keeps the intact prefix
// and reports exactly one skip.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("job-%06d", i+1), Event: EventSubmitted})
	}
	j.Close()

	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// cut >= 2 removes the newline plus at least the closing brace, so
	// the final line is genuinely torn (a cut of exactly 1 only strips
	// the newline and leaves a complete record, which replay keeps).
	for cut := 2; cut < 40; cut += 7 {
		if cut >= len(raw) {
			break
		}
		torn := raw[:len(raw)-cut]
		if err := os.WriteFile(seg, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, skips, err := ReplayDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 4 {
			t.Fatalf("cut %d: replayed %d records, want the 4 intact ones", cut, len(recs))
		}
		if len(skips) != 1 {
			t.Fatalf("cut %d: %d skips, want 1: %+v", cut, len(skips), skips)
		}
	}
}

// TestCRCMismatchSkipped flips one byte inside a record body — the
// envelope still parses, but the checksum must catch the corruption.
func TestCRCMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "job-000001", Event: EventSubmitted, Client: "mallory"})
	mustAppend(t, j, Record{Job: "job-000002", Event: EventSubmitted})
	j.Close()

	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the client name inside line 1 without breaking JSON.
	corrupted := bytes.Replace(raw, []byte("mallory"), []byte("mallorz"), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption target not found")
	}
	if err := os.WriteFile(seg, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skips, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Job != "job-000002" {
		t.Fatalf("recs %+v, want only the intact second record", recs)
	}
	if len(skips) != 1 || !strings.Contains(skips[0].Reason, "crc mismatch") {
		t.Fatalf("skips %+v, want one crc mismatch", skips)
	}
}

// TestSegmentRotation drives the segment size bound and checks records
// span multiple files but replay seamlessly.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("job-%06d", i+1), Event: EventSubmitted,
			Spec: json.RawMessage(`{"arch":"fingers","graph":"As","pattern":"tc"}`)})
	}
	j.Close()

	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}
	recs, skips, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 0 || len(recs) != n {
		t.Fatalf("replayed %d records %d skips, want %d/0", len(recs), len(skips), n)
	}

	// Reopen appends to the newest segment and keeps rotating.
	j2, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j2.Replayed()); got != n {
		t.Fatalf("reopen replayed %d, want %d", got, n)
	}
	mustAppend(t, j2, Record{Job: "job-000099", Event: EventSubmitted})
	j2.Close()
	recs, _, err = ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n+1 {
		t.Fatalf("after reopen append: %d records, want %d", len(recs), n+1)
	}
}

// TestDuplicateSeqSkipped duplicates a whole line (a replayed segment
// copied into two files, say) and checks the second copy is dropped.
func TestDuplicateSeqSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "job-000001", Event: EventSubmitted})
	j.Close()

	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate into a later segment, simulating interleaved copies.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skips, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	if len(skips) != 1 || !strings.Contains(skips[0].Reason, "duplicate seq") {
		t.Fatalf("skips %+v, want one duplicate-seq skip", skips)
	}
}

func TestForeignAndBlankLines(t *testing.T) {
	dir := t.TempDir()
	content := strings.Join([]string{
		"",
		"not json at all",
		`{"schema":"fingers.run/v1","cycles":5}`, // foreign JSON: no envelope body
		"   ",
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skips, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("foreign content produced records: %+v", recs)
	}
	if len(skips) != 2 {
		t.Fatalf("skips %+v, want 2 (bad line + foreign JSON)", skips)
	}
}

func TestEmptyAndMissingDir(t *testing.T) {
	recs, skips, err := ReplayDir(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 || len(skips) != 0 {
		t.Fatalf("missing dir: %v %v %v, want all empty", recs, skips, err)
	}
	recs, skips, err = ReplayDir(t.TempDir())
	if err != nil || len(recs) != 0 || len(skips) != 0 {
		t.Fatalf("empty dir: %v %v %v, want all empty", recs, skips, err)
	}
}

func TestBeforeAppendHookAborts(t *testing.T) {
	dir := t.TempDir()
	fail := false
	j, err := Open(dir, Options{NoSync: true, BeforeAppend: func(rec Record) error {
		if fail {
			return fmt.Errorf("injected")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "a", Event: EventSubmitted})
	fail = true
	if _, err := j.Append(Record{Job: "b", Event: EventSubmitted}); err == nil {
		t.Fatal("hooked append succeeded")
	}
	fail = false
	seq := mustAppend(t, j, Record{Job: "c", Event: EventSubmitted})
	j.Close()
	recs, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The aborted append wrote nothing; its sequence number was not
	// consumed either.
	if len(recs) != 2 || seq != 2 {
		t.Fatalf("recs %+v seq %d, want 2 records and seq 2", recs, seq)
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := j.Append(Record{Job: "a", Event: EventSubmitted}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestReduceAttemptAndSpecCarry(t *testing.T) {
	recs := []Record{
		{Seq: 1, Job: "j1", Event: EventSubmitted, Attempt: 1, Client: "c1", Spec: json.RawMessage(`{"a":1}`)},
		{Seq: 2, Job: "j1", Event: EventStarted, Attempt: 1},
		{Seq: 3, Job: "j1", Event: EventRequeued, Attempt: 2, Spec: json.RawMessage(`{"a":1}`)},
		{Seq: 4, Job: "j1", Event: EventStarted, Attempt: 2},
	}
	states := Reduce(recs)
	if len(states) != 1 {
		t.Fatalf("states %+v", states)
	}
	st := states[0]
	if st.Attempt != 2 || st.Client != "c1" || st.Event != EventStarted || len(st.Spec) == 0 {
		t.Errorf("reduced state %+v", st)
	}
}
