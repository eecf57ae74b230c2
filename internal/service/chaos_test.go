// Chaos suite: crash the daemon (in effigy) at every journal record
// boundary and prove the recovery invariants the design promises —
// replaying any journal prefix yields a queue state equivalent to the
// crash-free run's state at that point, every recovered job reaches a
// terminal state, and completed-job counts are bit-identical to a
// direct Simulate of the same spec. The real kill -9 lives in CI's
// chaos-smoke job; here crashes are simulated by truncating copies of
// the journal at record boundaries, which exercises the identical
// replay path without sacrificing the test process.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fingers"
	"fingers/internal/accel"
	"fingers/internal/journal"
	"fingers/internal/telemetry"
)

// openJournal opens a journal in dir, failing the test on error.
func openJournal(t *testing.T, dir string, opt journal.Options) *journal.Journal {
	t.Helper()
	jn, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return jn
}

// drainAll waits for every job in the manager to reach a terminal
// state.
func drainAll(t *testing.T, m *Manager) {
	t.Helper()
	for _, st := range m.List() {
		waitDone(t, m, st.ID)
	}
}

// TestJournalReplayRestoresJobs: run jobs to completion, reopen the
// journal in a fresh manager, and check the history is restored —
// terminal states, attempts, clients — with nothing re-enqueued.
func TestJournalReplayRestoresJobs(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	m1 := NewManager(NewRegistry(), Config{Concurrency: 2, Journal: jn})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m1.SubmitFrom("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	drainAll(t, m1)
	m1.Drain(time.Second)
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2 := openJournal(t, dir, journal.Options{})
	m2 := NewManager(NewRegistry(), Config{Concurrency: 2, Journal: jn2})
	defer m2.Drain(0)
	rs := m2.Recovery()
	if !rs.Enabled || rs.RestoredTerminal != 3 || rs.Requeued != 0 {
		t.Fatalf("recovery %+v, want 3 restored, 0 requeued", rs)
	}
	for _, id := range ids {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		st := j.Status()
		if st.State != StateDone || st.ClientID != "alice" {
			t.Errorf("job %s restored as %s client %q, want done/alice", id, st.State, st.ClientID)
		}
	}
	// New submissions continue the ID sequence instead of colliding.
	j, err := m2.SubmitFrom("", spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000004" {
		t.Errorf("post-restart ID %s, want job-000004", j.ID)
	}
	waitDone(t, m2, j.ID)
}

// TestCrashWhileQueuedRequeues: journal a submission, "crash" before
// it runs (new manager over a copied journal), and check the job is
// re-enqueued, runs, and its count matches the direct simulation.
func TestCrashWhileQueuedRequeues(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}
	b, err := jsonMarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jn.Append(journal.Record{Job: "job-000001", Event: journal.EventSubmitted,
		Attempt: 1, Client: "alice", Spec: b}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2 := openJournal(t, dir, journal.Options{})
	m := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn2})
	defer m.Drain(time.Second)
	rs := m.Recovery()
	if rs.Requeued != 1 || rs.Interrupted != 0 {
		t.Fatalf("recovery %+v, want 1 requeued (not interrupted)", rs)
	}
	j, ok := m.Get("job-000001")
	if !ok {
		t.Fatal("queued job not recovered")
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("recovered job state %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempt != 1 {
		t.Errorf("attempt %d, want 1 — a queued job lost no work", st.Attempt)
	}
	if st.RecoveredFromCrash {
		t.Error("queued-only job marked recovered_from_crash")
	}
	want := directResult(t, spec)
	if st.Record.Count != want.Count || st.Record.Cycles != want.Cycles {
		t.Errorf("recovered run count=%d cycles=%d, direct count=%d cycles=%d",
			st.Record.Count, st.Record.Cycles, want.Count, want.Cycles)
	}
}

// TestReplayIgnoresRemovedParallelFields: a journal written while the
// parallel simulation engine existed may hold a queued spec carrying
// sim_workers/sim_window. Replay decodes specs leniently, so the job is
// re-enqueued and finishes done on the serial engine, with the direct
// simulation's count and cycles.
func TestReplayIgnoresRemovedParallelFields(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	old := []byte(`{"arch":"fingers","graph":"As","pattern":"tc","pes":2,"sim_workers":4,"sim_window":128}`)
	if _, err := jn.Append(journal.Record{Job: "job-000001", Event: journal.EventSubmitted,
		Attempt: 1, Client: "alice", Spec: old}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2 := openJournal(t, dir, journal.Options{})
	m := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn2})
	defer m.Drain(time.Second)
	if rs := m.Recovery(); rs.Requeued != 1 {
		t.Fatalf("recovery %+v, want 1 requeued", rs)
	}
	j, ok := m.Get("job-000001")
	if !ok {
		t.Fatal("queued job not recovered")
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("recovered job state %s (err %q), want done", st.State, st.Error)
	}
	want := directResult(t, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2})
	if st.Record.Count != want.Count || st.Record.Cycles != want.Cycles {
		t.Errorf("replayed run count=%d cycles=%d, direct count=%d cycles=%d",
			st.Record.Count, st.Record.Cycles, want.Count, want.Cycles)
	}
}

// TestCrashMidRunInterruptsAndRetries: a journal ending in a started
// event means the process died mid-run. Replay must append the
// interrupted record the crash swallowed, advance the attempt, mark
// the job recovered, and complete it with counts bit-identical to a
// direct Simulate.
func TestCrashMidRunInterruptsAndRetries(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}
	b, err := jsonMarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jn.Append(journal.Record{Job: "job-000001", Event: journal.EventSubmitted,
		Attempt: 1, Client: "alice", Spec: b}); err != nil {
		t.Fatal(err)
	}
	if _, err := jn.Append(journal.Record{Job: "job-000001", Event: journal.EventStarted,
		Attempt: 1, Client: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2 := openJournal(t, dir, journal.Options{})
	m := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn2})
	defer m.Drain(time.Second)
	rs := m.Recovery()
	if rs.Requeued != 1 || rs.Interrupted != 1 {
		t.Fatalf("recovery %+v, want 1 requeued and 1 interrupted", rs)
	}
	j, _ := m.Get("job-000001")
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("attempt %d, want 2 — the crashed attempt counts", st.Attempt)
	}
	if !st.RecoveredFromCrash {
		t.Error("mid-run crash not marked recovered_from_crash")
	}
	if st.Record == nil || !st.Record.Meta.RecoveredFromCrash || st.Record.Meta.Attempt != 2 {
		t.Errorf("record meta not stamped: %+v", st.Record.Meta)
	}
	want := directResult(t, spec)
	if st.Record.Count != want.Count || st.Record.Cycles != want.Cycles {
		t.Errorf("recovered run count=%d cycles=%d, direct count=%d cycles=%d",
			st.Record.Count, st.Record.Cycles, want.Count, want.Cycles)
	}
}

// TestCrashAtEveryRecordBoundary is the core recovery-invariant test:
// run a real multi-job session against a journal, then for every
// prefix of that journal (a crash between any two fsyncs), boot a
// fresh manager on the prefix and check (a) replay never fails, (b)
// every job present in the prefix is accounted for, (c) all recovered
// jobs reach a terminal state, and (d) every job that completes —
// before or after the crash — reports the same bit-identical count as
// the direct simulation.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	m1 := NewManager(NewRegistry(), Config{Concurrency: 2, Journal: jn})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}
	for i := 0; i < 3; i++ {
		if _, err := m1.SubmitFrom("chaos", spec); err != nil {
			t.Fatal(err)
		}
	}
	drainAll(t, m1)
	m1.Drain(time.Second)
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, firstSegment(t, dir))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	want := directResult(t, spec)

	boundaries := 0
	for cut := 0; cut <= len(lines); cut++ {
		prefix := bytes.Join(lines[:cut], nil)
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "journal-000001.jsonl"), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		cj := openJournal(t, cdir, journal.Options{})
		m := NewManager(NewRegistry(), Config{Concurrency: 2, Journal: cj})
		rs := m.Recovery()
		if rs.Skipped != 0 {
			t.Errorf("cut %d: %d skips replaying a clean prefix", cut, rs.Skipped)
		}
		// Every job mentioned in the prefix must be in the table, and
		// every one must reach a terminal state.
		states := journal.Reduce(cj.Replayed())
		for _, jst := range states {
			j, ok := m.Get(jst.Job)
			if !ok {
				t.Fatalf("cut %d: job %s from prefix missing after replay", cut, jst.Job)
			}
			waitDone(t, m, j.ID)
			st := j.Status()
			if !st.State.Terminal() {
				t.Fatalf("cut %d: job %s stuck in %s", cut, jst.Job, st.State)
			}
			// The invariant: any job that completed — in the original
			// run or after recovery — has the bit-identical count.
			if st.State == StateDone && st.Record != nil {
				if st.Record.Count != want.Count || st.Record.Cycles != want.Cycles {
					t.Errorf("cut %d: job %s count=%d cycles=%d, want %d/%d",
						cut, jst.Job, st.Record.Count, st.Record.Cycles, want.Count, want.Cycles)
				}
			}
		}
		m.Drain(time.Second)
		if err := cj.Close(); err != nil {
			t.Fatal(err)
		}
		boundaries++
	}
	if boundaries < 10 {
		t.Fatalf("only %d crash boundaries exercised — journal suspiciously short", boundaries)
	}
}

// TestJournalFaultRejectsSubmission: when the journal's append seam
// fails at admission time, the submission is rejected — the daemon
// never acknowledges a job it cannot make durable.
func TestJournalFaultRejectsSubmission(t *testing.T) {
	fi := NewFaultInjector(FaultPoint{Op: OpJournal, Kind: FaultError, Invocation: 1})
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{BeforeAppend: fi.JournalHook()})
	m := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn})
	defer m.Drain(0)
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}

	if _, err := m.SubmitFrom("", spec); err == nil {
		t.Fatal("submission acknowledged despite journal append failure")
	}
	if rs := m.Recovery(); rs.AppendErrors != 1 {
		t.Errorf("append errors %d, want 1", rs.AppendErrors)
	}
	// The next submission (injector exhausted) succeeds, and the
	// journal contains no trace of the rejected one.
	j, err := m.SubmitFrom("", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	if j.ID != "job-000001" {
		t.Errorf("ID %s, want job-000001 — the rejected submission must not burn a sequence number", j.ID)
	}
}

// TestDrainJournalsInterrupted: drain with running work journals the
// jobs as interrupted, and a restart against the same journal
// re-enqueues and completes them.
func TestDrainJournalsInterrupted(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	m1 := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn})
	started := make(chan string, 1)
	release := make(chan struct{})
	m1.simulate = blockingSim(started, release)
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}
	j1, err := m1.SubmitFrom("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m1.Drain(10 * time.Millisecond)
	close(release)
	if st := j1.Status(); st.State != StateInterrupted {
		t.Fatalf("drained job state %s, want interrupted", st.State)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the interrupted job must come back and complete.
	jn2 := openJournal(t, dir, journal.Options{})
	m2 := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn2})
	defer m2.Drain(time.Second)
	rs := m2.Recovery()
	if rs.Requeued != 1 || rs.Interrupted != 1 {
		t.Fatalf("recovery %+v, want the interrupted job requeued", rs)
	}
	j2, _ := m2.Get(j1.ID)
	waitDone(t, m2, j2.ID)
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("resumed job state %s (err %q), want done", st.State, st.Error)
	}
	if !st.RecoveredFromCrash || st.ClientID != "alice" {
		t.Errorf("resumed job lost its provenance: %+v", st)
	}
	want := directResult(t, spec)
	if st.Record.Count != want.Count {
		t.Errorf("resumed count %d, want %d", st.Record.Count, want.Count)
	}
}

// TestStreamEndsWithTerminalRecord: a stream over a job that fails
// before simulating still closes with a terminal record carrying the
// job state, not a bare connection close.
func TestStreamEndsWithTerminalRecord(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1})
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		return fingers.SimReport{}, fmt.Errorf("dead on arrival: %w", fingers.ErrInvalidPlan)
	}
	st, _ := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := telemetry.ReadRecordsLenient(bytes.NewReader(raw))
	if err != nil || len(skipped) != 0 {
		t.Fatalf("stream unreadable: %v, skipped %v", err, skipped)
	}
	if len(recs) == 0 {
		t.Fatal("stream ended with no terminal record")
	}
	last := recs[len(recs)-1]
	if last.Meta.JobState != string(StateFailed) {
		t.Errorf("final record job_state %q, want failed", last.Meta.JobState)
	}
	if !last.Partial {
		t.Error("no-result terminal record should be marked partial")
	}
	waitDone(t, m, st.ID)
}

// firstSegment returns the name of the lone journal segment in dir.
func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 {
		t.Fatalf("journal dir has %d segments %v, want 1", len(names), names)
	}
	return names[0]
}

// directResult runs spec through the Simulate façade once for
// comparison against daemon-served runs.
func directResult(t *testing.T, spec fingers.JobSpec) accel.Result {
	t.Helper()
	g, err := spec.ResolveGraph()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := spec.Plans()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := spec.ArchValue()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fingers.Simulate(arch, g, plans, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Result
}

// jsonMarshalSpec serializes a spec the way SubmitFrom journals it.
func jsonMarshalSpec(spec fingers.JobSpec) ([]byte, error) {
	return json.Marshal(spec)
}
