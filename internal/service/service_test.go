package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/journal"
	"fingers/internal/telemetry"
)

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// newTestServer wires a full stack — registry, manager, HTTP handler —
// and tears it down with the test.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(NewRegistry(), cfg)
	ts := httptest.NewServer(NewServer(m, 20*time.Millisecond).Handler())
	t.Cleanup(func() {
		ts.Close()
		m.Drain(0)
	})
	return m, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec fingers.JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return j
}

// TestSubmitMatchesDirectSimulate runs one job through the full HTTP
// path and checks the served record is bit-identical to a direct
// Simulate call with the same spec.
func TestSubmitMatchesDirectSimulate(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 2})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 4}
	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	waitDone(t, m, st.ID)
	got := getStatus(t, ts, st.ID)
	if got.State != StateDone {
		t.Fatalf("state %s (err %q), want done", got.State, got.Error)
	}
	if got.Record == nil {
		t.Fatal("done job has no record")
	}

	opts, err := spec.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.ResolveGraph()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := spec.Plans()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingers.Simulate(fingers.ArchFingers, g, plans, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Record.Count != want.Result.Count || got.Record.Cycles != want.Result.Cycles {
		t.Errorf("served record count=%d cycles=%d, direct Simulate count=%d cycles=%d",
			got.Record.Count, got.Record.Cycles, want.Result.Count, want.Result.Cycles)
	}
	if got.Record.Meta.JobID != st.ID {
		t.Errorf("record job_id %q, want %q", got.Record.Meta.JobID, st.ID)
	}
}

// TestConcurrentJobsShareGraph serves 8 concurrent jobs against one
// registry graph and checks every result is bit-identical to the direct
// run — the shared immutable CSR and hybrid view must not interfere.
func TestConcurrentJobsShareGraph(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 8, QueueDepth: 16})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2}

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
	want, err := fingers.Simulate(fingers.ArchFingers, g, plans, opts...)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("POST %d: %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		j := waitDone(t, m, id)
		st := j.Status()
		if st.State != StateDone || st.Record == nil {
			t.Fatalf("job %s: state %s err %q", id, st.State, st.Error)
		}
		if st.Record.Count != want.Result.Count || st.Record.Cycles != want.Result.Cycles {
			t.Errorf("job %s: count=%d cycles=%d, want count=%d cycles=%d",
				id, st.Record.Count, st.Record.Cycles, want.Result.Count, want.Result.Cycles)
		}
	}
}

// blockingSim returns a simulate fake that parks until its context is
// canceled (returning a partial report) or release is closed (returning
// a complete one). started receives one value per invocation.
func blockingSim(started chan<- string, release <-chan struct{}) func(context.Context, fingers.Arch, *fingers.Graph, []*fingers.Plan, ...fingers.SimOption) (fingers.SimReport, error) {
	return func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		if started != nil {
			started <- ""
		}
		select {
		case <-ctx.Done():
			return fingers.SimReport{Partial: true}, ctx.Err()
		case <-release:
			return fingers.SimReport{}, nil
		}
	}
}

func TestQueueFull(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	m, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	m.simulate = blockingSim(started, release)
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}

	// First job occupies the worker, second the queue slot.
	st1, _ := postJob(t, ts, spec)
	<-started
	postJob(t, ts, spec)
	// Third must bounce with 429.
	_, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	waitDone(t, m, st1.ID)
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m, ts := newTestServer(t, Config{Concurrency: 1})
	m.simulate = blockingSim(started, release)

	st, _ := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j := waitDone(t, m, st.ID)
	got := j.Status()
	if got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	if got.Record == nil || !got.Record.Partial {
		t.Error("canceled job should carry a partial record")
	}
}

// TestDeadlinePartialReport gives a real simulation a 1 ms budget and
// expects a deadline_exceeded state with a partial record.
func TestDeadlinePartialReport(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "5cl", PEs: 1, TimeoutMS: 1}
	st, _ := postJob(t, ts, spec)
	j := waitDone(t, m, st.ID)
	got := j.Status()
	if got.State != StateDeadline {
		t.Fatalf("state %s (err %q), want deadline_exceeded", got.State, got.Error)
	}
	if got.Record == nil || !got.Record.Partial {
		t.Fatal("expired job should carry a partial record")
	}
}

func TestDefaultAndMaxTimeout(t *testing.T) {
	m := NewManager(NewRegistry(), Config{
		Concurrency:    1,
		DefaultTimeout: 250 * time.Millisecond,
		MaxTimeout:     time.Second,
	})
	defer m.Drain(0)
	release := make(chan struct{})
	defer close(release)
	m.simulate = blockingSim(nil, release)

	j1, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	if j1.Spec.TimeoutMS != 250 {
		t.Errorf("defaulted timeout %d ms, want 250", j1.Spec.TimeoutMS)
	}
	j2, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Spec.TimeoutMS != 1000 {
		t.Errorf("clamped timeout %d ms, want 1000", j2.Spec.TimeoutMS)
	}
}

// TestStreamWellFormed captures a job's stream and feeds it to the
// lenient run-record reader: every line must parse with zero skips and
// the last record must be the complete (non-partial) result.
func TestStreamWellFormed(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1, ProgressEvery: 64})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 4}
	st, _ := postJob(t, ts, spec)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := telemetry.ReadRecordsLenient(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("lenient reader skipped %d stream lines: %+v", len(skipped), skipped)
	}
	if len(recs) == 0 {
		t.Fatal("empty stream")
	}
	last := recs[len(recs)-1]
	if last.Partial {
		t.Error("final streamed record is partial")
	}
	if last.Schema != telemetry.RunSchema {
		t.Errorf("final schema %q", last.Schema)
	}
	for _, r := range recs[:len(recs)-1] {
		if !r.Partial {
			t.Error("non-final stream record not marked partial")
		}
	}
	waitDone(t, m, st.ID)
}

// TestStreamClientDisconnect drops a streaming client mid-run and
// checks the job is unaffected and completes.
func TestStreamClientDisconnect(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m, ts := newTestServer(t, Config{Concurrency: 1})
	m.simulate = blockingSim(started, release)

	st, _ := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little, then hang up.
	buf := make([]byte, 1)
	go resp.Body.Read(buf)
	time.Sleep(50 * time.Millisecond)
	cancel()
	resp.Body.Close()

	// The job must still be running, and must complete once released.
	if s := getStatus(t, ts, st.ID); s.State != StateRunning {
		t.Fatalf("after disconnect job state %s, want running", s.State)
	}
	close(release)
	j := waitDone(t, m, st.ID)
	if s := j.Status(); s.State != StateDone {
		t.Fatalf("final state %s, want done", s.State)
	}
}

// TestDrainFlushesPartials starts a long job, drains with a tiny grace,
// and checks the job was interrupted (not canceled — the daemon
// stopped, the client didn't) with its partial record written to the
// run log, and that post-drain submissions bounce with 503.
func TestDrainFlushesPartials(t *testing.T) {
	var logBuf bytes.Buffer
	log := telemetry.NewRunLog(&logBuf)
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m, ts := newTestServer(t, Config{Concurrency: 1, Log: log})
	m.simulate = blockingSim(started, release)

	st, _ := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", RunTag: "drain-test"})
	<-started
	m.Drain(10 * time.Millisecond)

	j, _ := m.Get(st.ID)
	got := j.Status()
	if got.State != StateInterrupted {
		t.Fatalf("state %s, want interrupted", got.State)
	}
	if got.Record == nil || !got.Record.Partial {
		t.Fatal("drained job should carry a partial record")
	}
	if got.Record.Meta.JobState != string(StateInterrupted) {
		t.Errorf("record job_state %q, want interrupted", got.Record.Meta.JobState)
	}
	recs, skipped, err := telemetry.ReadRecordsLenient(bytes.NewReader(logBuf.Bytes()))
	if err != nil || len(skipped) != 0 {
		t.Fatalf("run log unreadable: %v, skipped %v", err, skipped)
	}
	if len(recs) != 1 || !recs[0].Partial || recs[0].Meta.JobID != st.ID {
		t.Fatalf("run log records %+v, want one partial record for %s", recs, st.ID)
	}

	// Admission is closed now.
	_, resp := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST: %d, want 503", resp.StatusCode)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 2})
	m.simulate = blockingSim(started, release)

	if _, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(queued.ID)
	close(release) // job 1 completes; the worker then dequeues the canceled job
	j := waitDone(t, m, queued.ID)
	if s := j.State(); s != StateCanceled {
		t.Fatalf("queued-then-canceled job state %s, want canceled", s)
	}
}

func TestUnknownGraph404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, resp := postJob(t, ts, fingers.JobSpec{Arch: "fingers", Graph: "Mii", Pattern: "tc"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"arch":"fingers","graph":"Mii","pattern":"tc"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var body struct {
		Error      string   `json:"error"`
		Known      []string `json:"known"`
		Suggestion string   `json:"suggestion"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Suggestion != "Mi" {
		t.Errorf("suggestion %q, want Mi", body.Suggestion)
	}
	if len(body.Known) == 0 || body.Error == "" {
		t.Errorf("404 body incomplete: %+v", body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed json": `{"arch":`,
		"unknown field":  `{"arch":"fingers","graph":"As","pattern":"tc","bogus":1}`,
		"bad arch":       `{"arch":"gpu","graph":"As","pattern":"tc"}`,
		"bad pattern":    `{"arch":"fingers","graph":"As","pattern":"nope"}`,
		"negative pes":   `{"arch":"fingers","graph":"As","pattern":"tc","pes":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRemovedParallelFields400: a body carrying a field of the removed
// parallel simulation engine is a 400 whose message names the field,
// says the engine was removed, and points at sim_shards.
func TestRemovedParallelFields400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, field := range []string{"sim_workers", "sim_window"} {
		body := fmt.Sprintf(`{"arch":"fingers","graph":"As","pattern":"tc",%q:4}`, field)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, resp.StatusCode)
		}
		for _, want := range []string{field, "parallel simulation engine was removed", "sim_shards"} {
			if !strings.Contains(eb.Error, want) {
				t.Errorf("%s: error %q does not mention %q", field, eb.Error, want)
			}
		}
	}
}

func TestGraphsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gl struct {
		Graphs []GraphSummary `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatal(err)
	}
	if len(gl.Graphs) != 6 {
		t.Errorf("listed %d graphs, want the 6 bundled datasets", len(gl.Graphs))
	}
	for _, g := range gl.Graphs {
		if g.Loaded {
			t.Errorf("graph %s loaded before any job", g.Name)
		}
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", h.StatusCode)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestListJobsOrder(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := postJob(t, ts, fingers.JobSpec{Arch: "flexminer", Graph: "As", Pattern: "tc"})
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.ID != ids[i] {
			t.Errorf("job %d is %s, want %s (submission order)", i, j.ID, ids[i])
		}
	}
}

func TestFailedRunNoRecord(t *testing.T) {
	m, _ := newTestServer(t, Config{Concurrency: 1})
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		return fingers.SimReport{}, fmt.Errorf("chip exploded")
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	got := j.Status()
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Record != nil {
		t.Error("failed run without a simulated prefix should carry no record")
	}
	if !strings.Contains(got.Error, "chip exploded") {
		t.Errorf("error %q", got.Error)
	}
}

// TestSubmitValidatesBeforeQueueing checks an invalid spec is rejected
// by SubmitFrom directly (no queue slot consumed) with the structured
// dataset error intact.
func TestSubmitValidatesBeforeQueueing(t *testing.T) {
	m, _ := newTestServer(t, Config{})
	if _, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "", Pattern: "tc"}); err == nil {
		t.Error("empty graph accepted")
	}
	_, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "Oz", Pattern: "tc"})
	if err == nil {
		t.Fatal("unknown graph accepted")
	}
	var nf *datasets.NotFoundError
	if !errors.As(err, &nf) {
		t.Errorf("error %T %q, want *datasets.NotFoundError", err, err)
	}
}

// TestRecordArchAndIUs pins the daemon's records to the contract every
// frontend shares: arch is the JobSpec name, and ius appears only on
// FINGERS jobs, where it is the configured IU count. Live stream
// records and the final record are checked alike. A job whose graph is
// still loading streams the canonical graph name, sim_shards is the
// count that runs on every record, and a stats job's final record keeps
// one per-PE row per PE, as fingers.NewRunRecord builds it.
func TestRecordArchAndIUs(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1, ProgressEvery: 64})
	for _, tc := range []struct {
		arch string
		ius  int
	}{
		{"fingers", 12},
		{"flexminer", 0},
		{"sisa", 0},
	} {
		spec := fingers.JobSpec{Arch: tc.arch, Graph: "As", Pattern: "tc", PEs: 2, IUs: 12}
		st, resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: POST: %d", tc.arch, resp.StatusCode)
		}
		sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := telemetry.ReadRecordsLenient(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, st.ID)
		got := getStatus(t, ts, st.ID)
		if got.Record == nil {
			t.Fatalf("%s: done job has no record", tc.arch)
		}
		for _, rec := range append(recs, *got.Record) {
			if rec.Arch != tc.arch || rec.IUs != tc.ius {
				t.Errorf("%s job: record arch %q ius %d (partial %v), want arch %q ius %d",
					tc.arch, rec.Arch, rec.IUs, rec.Partial, tc.arch, tc.ius)
			}
		}
		if !strings.Contains(string(raw), `"arch":"`+tc.arch+`"`) {
			t.Errorf("%s: stream does not carry the canonical arch:\n%s", tc.arch, raw)
		}
	}

	// The graph build blocks until release, so the job streams live
	// records while its graph is loading.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	m.Registry().Add("slow", func() (*graph.Graph, error) {
		<-release
		return gen.ErdosRenyi(200, 800, 3), nil
	})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "slow", Pattern: "tc", PEs: 2, SimShards: 8, Stats: true}
	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow graph: POST: %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var raw bytes.Buffer
	sc := bufio.NewScanner(sresp.Body)
	for lines := 0; lines < 2 && sc.Scan(); lines++ {
		raw.Write(sc.Bytes())
		raw.WriteByte('\n')
	}
	unblock()
	for sc.Scan() {
		raw.Write(sc.Bytes())
		raw.WriteByte('\n')
	}
	recs, skipped, err := telemetry.ReadRecordsLenient(&raw)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("slow graph: stream unreadable: %v, skipped %v", err, skipped)
	}
	if len(recs) < 3 {
		t.Fatalf("slow graph: %d records, want 2 live and a final one", len(recs))
	}
	live, final := recs[:len(recs)-1], recs[len(recs)-1]
	for i, rec := range live {
		if !rec.Partial || rec.JobState != "" {
			t.Errorf("live record %d: partial %v job_state %q, want a partial record with no job_state", i, rec.Partial, rec.JobState)
		}
		if rec.Graph.Name != "slow" {
			t.Errorf("live record %d: graph name %q during the graph load, want \"slow\"", i, rec.Graph.Name)
		}
	}
	if final.Graph.Name != "slow" || final.Graph.Vertices != 200 {
		t.Errorf("final record graph %+v, want the loaded graph's summary", final.Graph)
	}
	if final.JobState != string(StateDone) || final.StartedAt == "" || final.WallNS <= 0 {
		t.Errorf("final record job_state %q started_at %q wall_ns %d, want done with both stamps",
			final.JobState, final.StartedAt, final.WallNS)
	}
	for i, rec := range recs {
		if rec.SimShards != 2 {
			t.Errorf("record %d (partial %v): sim_shards %d, want 2 (clamped to the PE count)", i, rec.Partial, rec.SimShards)
		}
	}
	if len(final.PerPE) != 2 {
		t.Errorf("stats job's final record has %d per_pe rows, want 2", len(final.PerPE))
	}
	waitDone(t, m, st.ID)
}

// TestTerminalStatesAreJournalEvents: a terminal state is journaled
// under its own name and a replayed terminal event restores the state
// of that name, so no mapping sits between the two. Interrupted is
// terminal for the process but not for the journal, which resumes it.
func TestTerminalStatesAreJournalEvents(t *testing.T) {
	for _, tc := range []struct {
		state State
		event string
	}{
		{StateDone, journal.EventDone},
		{StateCanceled, journal.EventCanceled},
		{StateDeadline, journal.EventDeadline},
		{StateFailed, journal.EventFailed},
		{StateInterrupted, journal.EventInterrupted},
	} {
		if !tc.state.Terminal() {
			t.Errorf("state %q is not terminal", tc.state)
		}
		if string(tc.state) != tc.event {
			t.Errorf("state %q journals as %q: the names differ", tc.state, tc.event)
		}
		if got, want := journal.Terminal(tc.event), tc.state != StateInterrupted; got != want {
			t.Errorf("journal.Terminal(%q) = %v, want %v", tc.event, got, want)
		}
	}
}

// TestFinishedJobReleasesContext: every terminal move releases the
// job's context, so a finished job holds nothing under the manager's
// base context until Drain.
func TestFinishedJobReleasesContext(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	m := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: jn})
	fail := false
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		if fail {
			return fingers.SimReport{}, errors.New("chip exploded")
		}
		return fingers.SimReport{}, nil
	}
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}
	var jobs []*Job
	for _, f := range []bool{false, true} {
		fail = f
		j, err := m.SubmitFrom("", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, j.ID)
		if j.ctx.Err() == nil {
			t.Errorf("job %s (%s): context still live after Done", j.ID, j.State())
		}
		jobs = append(jobs, j)
	}
	m.Drain(time.Second)
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay restores both as history; their contexts are released too.
	m2 := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: openJournal(t, dir, journal.Options{})})
	defer m2.Drain(0)
	for i, j := range jobs {
		r, ok := m2.Get(j.ID)
		if !ok {
			t.Fatalf("job %s not restored", j.ID)
		}
		<-r.Done()
		if r.State() != j.State() {
			t.Errorf("job %s restored as %s, want %s", j.ID, r.State(), j.State())
		}
		if r.ctx.Err() == nil {
			t.Errorf("restored job %d (%s): context still live after Done", i, r.State())
		}
	}
}
