package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"fingers"
)

// newJSONBody marshals v for a request body.
func newJSONBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// decodeJSONBody decodes a response body into v.
func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// fakeClock gives admission tests a deterministic time axis.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// holdWorkers parks every worker so admission tests control queue
// occupancy exactly. Returns the release closure.
func holdWorkers(m *Manager, started chan string) func() {
	release := make(chan struct{})
	m.simulate = blockingSim(started, release)
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// TestRateLimitPerClient: a client's submissions beyond its bucket
// reject with ErrRateLimited and a positive Retry-After, refilling as
// the clock advances; other clients are unaffected.
func TestRateLimitPerClient(t *testing.T) {
	clock := newFakeClock()
	m, _ := newTestServer(t, Config{
		Concurrency: 1, QueueDepth: 32,
		ClientRate: 1, ClientBurst: 2,
	})
	m.now = clock.now
	started := make(chan string, 64)
	release := holdWorkers(m, started)
	defer release()
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}

	for i := 0; i < 2; i++ {
		if _, err := m.SubmitFrom("alice", spec); err != nil {
			t.Fatalf("burst submission %d: %v", i, err)
		}
	}
	_, err := m.SubmitFrom("alice", spec)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third submission error %v, want ErrRateLimited", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.RetryAfter <= 0 || adm.Client != "alice" {
		t.Fatalf("rejection not a well-formed *AdmissionError: %+v", adm)
	}
	// A different client has its own bucket.
	if _, err := m.SubmitFrom("bob", spec); err != nil {
		t.Fatalf("bob rejected alongside alice: %v", err)
	}
	// The bucket refills with time.
	clock.advance(1500 * time.Millisecond)
	if _, err := m.SubmitFrom("alice", spec); err != nil {
		t.Fatalf("post-refill submission rejected: %v", err)
	}
	// Anonymous in-process submissions are never rate limited.
	for i := 0; i < 5; i++ {
		if _, err := m.SubmitFrom("", spec); err != nil {
			t.Fatalf("anonymous submission %d rejected: %v", i, err)
		}
	}
}

// TestClientQueueShare: one client may hold at most its fair share of
// queued jobs; slots free as workers dequeue.
func TestClientQueueShare(t *testing.T) {
	m, _ := newTestServer(t, Config{
		Concurrency: 1, QueueDepth: 16,
		MaxQueuedPerClient: 2,
	})
	started := make(chan string, 16)
	release := holdWorkers(m, started)
	defer release()
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}

	// First submission is dequeued by the (parked) worker; wait for it
	// so the client's queued count is deterministic.
	if _, err := m.SubmitFrom("alice", spec); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := m.SubmitFrom("alice", spec); err != nil {
			t.Fatalf("submission %d within share: %v", i, err)
		}
	}
	_, err := m.SubmitFrom("alice", spec)
	if !errors.Is(err, ErrClientShare) {
		t.Fatalf("over-share submission error %v, want ErrClientShare", err)
	}
	// Another client still fits.
	if _, err := m.SubmitFrom("bob", spec); err != nil {
		t.Fatalf("bob rejected by alice's share: %v", err)
	}
}

// TestLoadSheddingByPriority: once queue latency crosses the
// threshold, low-priority work sheds first, normal at twice the
// threshold, and high priority rides through.
func TestLoadSheddingByPriority(t *testing.T) {
	clock := newFakeClock()
	m, _ := newTestServer(t, Config{
		Concurrency: 1, QueueDepth: 32,
		ShedLatency: time.Second,
	})
	m.now = clock.now
	started := make(chan string, 32)
	release := holdWorkers(m, started)
	defer release()
	spec := func(prio string) fingers.JobSpec {
		return fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", Priority: prio}
	}

	// Occupy the worker, then leave one job queued and age it.
	if _, err := m.SubmitFrom("c", spec("")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.SubmitFrom("c", spec("")); err != nil {
		t.Fatal(err)
	}

	clock.advance(1500 * time.Millisecond) // latency ≈ 1.5 s: past shed, under 2×
	if _, err := m.SubmitFrom("c", spec("low")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority at 1.5s latency: %v, want ErrOverloaded", err)
	}
	if _, err := m.SubmitFrom("c", spec("")); err != nil {
		t.Fatalf("normal-priority at 1.5s latency rejected: %v", err)
	}

	clock.advance(time.Second) // latency ≈ 2.5 s: past 2×
	if _, err := m.SubmitFrom("c", spec("normal")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("normal-priority at 2.5s latency: %v, want ErrOverloaded", err)
	}
	if _, err := m.SubmitFrom("c", spec("high")); err != nil {
		t.Fatalf("high-priority shed: %v", err)
	}
}

// TestAdmission429 drives a rate-limit rejection through HTTP and
// checks the 429 carries Retry-After and the client keyed off
// X-Client-ID.
func TestAdmission429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Concurrency: 1, QueueDepth: 32,
		ClientRate: 0.001, ClientBurst: 1,
	})
	post := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			newJSONBody(t, fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("hot"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d", resp.StatusCode)
	}
	resp := post("hot")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// A different client identity is admitted.
	if resp := post("cold"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client POST: %d, want 202", resp.StatusCode)
	}
}

// TestReadyzSplit: /healthz stays 200 while draining (liveness), but
// /readyz flips to 503 with the drain and journal detail in the body.
func TestReadyzSplit(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1})
	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		decodeJSONBody(t, resp, &body)
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh daemon readyz: %d %v", code, body)
	}
	m.Drain(0)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining healthz: %d, want 200 (liveness, not readiness)", code)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: %d, want 503", code)
	}
	if body["ready"] != false || body["draining"] != true {
		t.Errorf("draining readyz body: %v", body)
	}
	if _, ok := body["journal"]; !ok {
		t.Error("readyz body missing journal replay status")
	}
}

// TestQueueLatencyEstimate pins the oldest-queued-job latency measure.
func TestQueueLatencyEstimate(t *testing.T) {
	clock := newFakeClock()
	m, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 8})
	m.now = clock.now
	started := make(chan string, 8)
	release := holdWorkers(m, started)
	defer release()
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"}

	if m.QueueLatency() != 0 {
		t.Fatalf("idle latency %s, want 0", m.QueueLatency())
	}
	if _, err := m.SubmitFrom("", spec); err != nil {
		t.Fatal(err)
	}
	<-started // worker holds job 1; queue empty again
	if _, err := m.SubmitFrom("", spec); err != nil {
		t.Fatal(err)
	}
	clock.advance(3 * time.Second)
	if got := m.QueueLatency(); got != 3*time.Second {
		t.Errorf("latency %s, want 3s", got)
	}
}
